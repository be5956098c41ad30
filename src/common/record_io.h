#ifndef EALGAP_COMMON_RECORD_IO_H_
#define EALGAP_COMMON_RECORD_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ealgap {

/// The one container behind every persisted artifact (model checkpoints,
/// train state, serve state, adapt state, the experiment journal). Layout,
/// all integers little-endian, floats as their raw IEEE-754 bits:
///
///   header   magic     8 bytes "EALGAPRC"
///            kind      string (e.g. "checkpoint")
///            version   u32
///            sections  u32
///            crc       u32 CRC32 of every header byte above
///   section  name      string
///            size      u64 payload bytes
///            payload   `size` bytes of typed fields
///            crc       u32 CRC32 of name, size and payload
///
/// Exactly `sections` sections follow the header, with unique names, and
/// nothing may follow the last one. Every byte is covered by a CRC, so any
/// single-bit flip or truncation is rejected before a loader interprets a
/// field. Field encodings:
///   u32 / u64 / i64 / f32 / f64   fixed width
///   string                        u32 length + bytes
///   f32s / f64s / i64s            u64 count + raw values
///   shape                         u32 rank (<= 8) + rank i64 dims (>= 1)

/// Builds a record file section by section and publishes it atomically.
class RecordWriter {
 public:
  RecordWriter(std::string_view kind, uint32_t version);

  /// Closes the open section (if any) and starts `name`; the Put* calls
  /// that follow append to it.
  RecordWriter& Section(std::string_view name);

  RecordWriter& PutU32(uint32_t v) { return PutRaw(&v, sizeof(v)); }
  RecordWriter& PutU64(uint64_t v) { return PutRaw(&v, sizeof(v)); }
  RecordWriter& PutI64(int64_t v) { return PutRaw(&v, sizeof(v)); }
  RecordWriter& PutF32(float v) { return PutRaw(&v, sizeof(v)); }
  RecordWriter& PutF64(double v) { return PutRaw(&v, sizeof(v)); }
  RecordWriter& PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    return PutRaw(s.data(), s.size());
  }
  RecordWriter& PutF32s(const float* v, size_t n) {
    PutU64(n);
    return PutRaw(v, n * sizeof(*v));
  }
  RecordWriter& PutF64s(const double* v, size_t n) {
    PutU64(n);
    return PutRaw(v, n * sizeof(*v));
  }
  RecordWriter& PutI64s(const int64_t* v, size_t n) {
    PutU64(n);
    return PutRaw(v, n * sizeof(*v));
  }
  RecordWriter& PutShape(const int64_t* dims, size_t rank);
  /// Pre-encoded payload bytes, verbatim (re-framing an existing section).
  RecordWriter& PutBytes(std::string_view b) {
    return PutRaw(b.data(), b.size());
  }

  /// Seals the file and lands it at `path` through WriteFileAtomic, so a
  /// reader (or a crash) sees the previous file or this one, never a mix.
  Status Commit(const std::string& path);

 private:
  RecordWriter& PutRaw(const void* data, size_t n);
  void CloseSection();

  std::string out_;
  size_t count_offset_ = 0;   ///< header's section-count field
  size_t section_start_ = 0;  ///< first byte of the open section
  bool section_open_ = false;
  uint32_t sections_ = 0;
};

/// Cursor over one verified section payload. Every read is bounds-checked
/// against the bytes left before anything is allocated; a failure is a
/// ParseError naming the file, the section and the field. Borrows the
/// RecordReader's bytes: do not move or destroy the reader while a section
/// of it is in use.
class RecordSection {
 public:
  const std::string& name() const { return *name_; }
  /// The raw payload (for re-framing with RecordWriter::PutBytes).
  std::string_view bytes() const { return {data_, size_}; }
  size_t remaining() const { return size_ - pos_; }

  Status ReadU32(std::string_view field, uint32_t* out) {
    return ReadPod(field, out);
  }
  Status ReadU64(std::string_view field, uint64_t* out) {
    return ReadPod(field, out);
  }
  Status ReadI64(std::string_view field, int64_t* out) {
    return ReadPod(field, out);
  }
  Status ReadF32(std::string_view field, float* out) {
    return ReadPod(field, out);
  }
  Status ReadF64(std::string_view field, double* out) {
    return ReadPod(field, out);
  }
  Status ReadString(std::string_view field, std::string* out);
  Status ReadF64s(std::string_view field, std::vector<double>* out) {
    return ReadArray(field, out);
  }
  Status ReadI64s(std::string_view field, std::vector<int64_t>* out) {
    return ReadArray(field, out);
  }

  /// An i64 that must lie in [lo, hi]; the error names the field.
  Status ReadI64In(std::string_view field, int64_t lo, int64_t hi,
                   int64_t* out);

  /// A u64 element count, checked to fit in the bytes left when every
  /// element takes at least `min_item_bytes` (>= 1) — so a caller may size
  /// storage from it.
  Status ReadCount(std::string_view field, size_t min_item_bytes,
                   uint64_t* out);

  /// A shape; its dims must be >= 1 and its f32 element count must fit in
  /// the bytes left, so `numel` floats can be allocated safely.
  Status ReadShape(std::string_view field, std::vector<int64_t>* dims,
                   int64_t* numel);

  /// `n` raw f32 values into `dst` (pair with ReadCount or ReadShape).
  Status ReadF32Values(std::string_view field, float* dst, size_t n);

  /// Error unless every payload byte was consumed.
  Status Finish() const;

  /// ParseError "<what> in section '<name>' field '<field>' of <path>".
  Status Error(std::string_view field, std::string_view what) const;

 private:
  friend class RecordReader;
  RecordSection(const std::string* path, const std::string* name,
                const char* data, size_t size)
      : path_(path), name_(name), data_(data), size_(size) {}

  Status Take(std::string_view field, size_t n, const char** out);

  template <typename T>
  Status ReadPod(std::string_view field, T* out) {
    const char* p = nullptr;
    EALGAP_RETURN_IF_ERROR(Take(field, sizeof(T), &p));
    std::memcpy(out, p, sizeof(T));
    return Status::OK();
  }

  template <typename T>
  Status ReadArray(std::string_view field, std::vector<T>* out) {
    uint64_t n = 0;
    const char* p = nullptr;
    EALGAP_RETURN_IF_ERROR(ReadCount(field, sizeof(T), &n));
    EALGAP_RETURN_IF_ERROR(Take(field, n * sizeof(T), &p));
    out->resize(n);
    std::memcpy(out->data(), p, n * sizeof(T));
    return Status::OK();
  }

  const std::string* path_;
  const std::string* name_;
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// A record file read whole and verified: magic, header CRC, the expected
/// kind and version, each section's bounds and CRC, unique names, the
/// declared section count, and no trailing bytes. Loaders then pull typed
/// fields from sections by name.
class RecordReader {
 public:
  /// NotFound/IoError when the file cannot be read; ParseError for any
  /// framing defect or a different kind; InvalidArgument for a version
  /// this build does not read.
  static Result<RecordReader> Open(const std::string& path,
                                   std::string_view kind, uint32_t version);

  /// The named section; ParseError naming it when absent.
  Result<RecordSection> Section(std::string_view name) const;
  /// Sections in file order.
  size_t section_count() const { return sections_.size(); }
  RecordSection SectionAt(size_t index) const;

  /// The content of a section holding exactly one string (e.g. `model`).
  Result<std::string> StringSection(std::string_view name) const;

 private:
  RecordReader() = default;

  struct Entry {
    std::string name;
    size_t offset;
    size_t size;
  };
  std::string path_;
  std::string bytes_;
  std::vector<Entry> sections_;
};

}  // namespace ealgap

#endif  // EALGAP_COMMON_RECORD_IO_H_
