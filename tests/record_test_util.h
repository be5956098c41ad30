#ifndef EALGAP_TESTS_RECORD_TEST_UTIL_H_
#define EALGAP_TESTS_RECORD_TEST_UTIL_H_

// Helpers for tests that need a correctly framed record file holding a bad
// value: the container's CRCs are recomputed, so the loader's semantic
// validation (the check that names the field) is what runs.

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "common/record_io.h"

namespace ealgap {
namespace testing_record {

/// Kind and version of each persisted format.
struct RecordFormat {
  const char* kind;
  uint32_t version;
};
inline constexpr RecordFormat kCheckpoint{"checkpoint", 2};
inline constexpr RecordFormat kTrainState{"train-state", 4};
inline constexpr RecordFormat kServeState{"serve-state", 3};
inline constexpr RecordFormat kAdaptState{"adapt-state", 2};
inline constexpr RecordFormat kJournal{"journal", 2};

/// File offset of the first payload byte of section `name` in `bytes`,
/// located by the name's first occurrence (callers pick names that do not
/// appear earlier in the file); npos when absent.
inline size_t PayloadOffset(const std::string& bytes, const std::string& name) {
  const size_t pos = bytes.find(name);
  if (pos == std::string::npos) return pos;
  return pos + name.size() + sizeof(uint64_t);  // name, then the u64 size
}

/// Re-frames the record at `path`: section `name` is rewritten by
/// `rewrite(original, writer)` (the writer is positioned in the new,
/// empty section); every other section is copied verbatim.
inline void RewriteSection(
    const std::string& path, const RecordFormat& format,
    const std::string& name,
    const std::function<void(RecordSection&, RecordWriter&)>& rewrite) {
  auto reader = RecordReader::Open(path, format.kind, format.version);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  RecordWriter writer(format.kind, format.version);
  bool found = false;
  for (size_t i = 0; i < reader->section_count(); ++i) {
    RecordSection section = reader->SectionAt(i);
    writer.Section(section.name());
    if (section.name() == name) {
      rewrite(section, writer);
      found = true;
    } else {
      writer.PutBytes(section.bytes());
    }
  }
  ASSERT_TRUE(found) << "no section '" << name << "' in " << path;
  ASSERT_TRUE(writer.Commit(path).ok());
}

/// Rewrites the little-endian i64 at byte `offset` of section `name`.
inline void PokeI64(const std::string& path, const RecordFormat& format,
                    const std::string& name, size_t offset, int64_t value) {
  RewriteSection(path, format, name,
                 [&](RecordSection& old, RecordWriter& writer) {
                   std::string payload(old.bytes());
                   ASSERT_LE(offset + sizeof(value), payload.size());
                   std::memcpy(payload.data() + offset, &value, sizeof(value));
                   writer.PutBytes(payload);
                 });
}

}  // namespace testing_record
}  // namespace ealgap

#endif  // EALGAP_TESTS_RECORD_TEST_UTIL_H_
