#include "common/record_io.h"

#include <bit>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/logging.h"

namespace ealgap {

// Fields are copied to and from the file with memcpy, so the host byte
// order must be the file's.
static_assert(std::endian::native == std::endian::little,
              "record files are little-endian");

namespace {

constexpr char kMagic[8] = {'E', 'A', 'L', 'G', 'A', 'P', 'R', 'C'};
constexpr uint32_t kMaxRank = 8;

Status CrcMismatch(const std::string& what, const std::string& path,
                   uint32_t stored, uint32_t computed) {
  return Status::ParseError(what + " CRC mismatch in " + path + ": stored " +
                            Crc32Hex(stored) + ", computed " +
                            Crc32Hex(computed));
}

}  // namespace

// --- RecordWriter ------------------------------------------------------------

RecordWriter::RecordWriter(std::string_view kind, uint32_t version) {
  out_.append(kMagic, sizeof(kMagic));
  section_open_ = true;  // the header uses the same field encodings
  PutString(kind).PutU32(version);
  count_offset_ = out_.size();
  PutU32(0).PutU32(0);  // section count and header CRC, set by Commit
  section_open_ = false;
}

RecordWriter& RecordWriter::PutRaw(const void* data, size_t n) {
  EALGAP_CHECK(section_open_) << "RecordWriter::Put* before Section()";
  out_.append(static_cast<const char*>(data), n);
  return *this;
}

RecordWriter& RecordWriter::Section(std::string_view name) {
  CloseSection();
  section_start_ = out_.size();
  section_open_ = true;
  ++sections_;
  return PutString(name).PutU64(0);  // payload size, set by CloseSection
}

void RecordWriter::CloseSection() {
  if (!section_open_) return;
  uint32_t name_bytes = 0;
  std::memcpy(&name_bytes, out_.data() + section_start_, sizeof(name_bytes));
  const size_t size_at = section_start_ + sizeof(uint32_t) + name_bytes;
  const uint64_t payload = out_.size() - size_at - sizeof(uint64_t);
  std::memcpy(out_.data() + size_at, &payload, sizeof(payload));
  PutU32(Crc32(out_.data() + section_start_, out_.size() - section_start_));
  section_open_ = false;
}

RecordWriter& RecordWriter::PutShape(const int64_t* dims, size_t rank) {
  PutU32(static_cast<uint32_t>(rank));
  for (size_t i = 0; i < rank; ++i) PutI64(dims[i]);
  return *this;
}

Status RecordWriter::Commit(const std::string& path) {
  CloseSection();
  std::memcpy(out_.data() + count_offset_, &sections_, sizeof(uint32_t));
  const uint32_t crc = Crc32(out_.data(), count_offset_ + sizeof(uint32_t));
  std::memcpy(out_.data() + count_offset_ + sizeof(uint32_t), &crc,
              sizeof(crc));
  return WriteFileAtomic(path, out_);
}

// --- RecordReader ------------------------------------------------------------

Result<RecordReader> RecordReader::Open(const std::string& path,
                                        std::string_view kind,
                                        uint32_t version) {
  RecordReader r;
  r.path_ = path;
  EALGAP_ASSIGN_OR_RETURN(r.bytes_, ReadFileToString(path));
  const std::string& b = r.bytes_;
  if (b.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError(path + " is not a record file");
  }
  // The framing is read with the same bounds-checked cursor as payloads.
  static const std::string kFraming = "framing";
  RecordSection file(&r.path_, &kFraming, b.data(), b.size());
  file.pos_ = sizeof(kMagic);
  std::string file_kind;
  uint32_t file_version = 0, count = 0, stored = 0;
  EALGAP_RETURN_IF_ERROR(file.ReadString("kind", &file_kind));
  EALGAP_RETURN_IF_ERROR(file.ReadU32("version", &file_version));
  EALGAP_RETURN_IF_ERROR(file.ReadU32("section count", &count));
  const uint32_t header_crc = Crc32(b.data(), file.pos_);
  EALGAP_RETURN_IF_ERROR(file.ReadU32("header crc", &stored));
  if (stored != header_crc) {
    return CrcMismatch("header", path, stored, header_crc);
  }
  if (file_kind != kind) {
    return Status::ParseError(path + " holds a '" + file_kind +
                              "' record, not '" + std::string(kind) + "'");
  }
  if (file_version != version) {
    return Status::InvalidArgument(
        "unsupported " + file_kind + " version " +
        std::to_string(file_version) + " in " + path + " (this build reads " +
        std::to_string(version) + ")");
  }

  // No reserve(count): a bad count just runs out of bytes.
  for (uint32_t i = 0; i < count; ++i) {
    const size_t start = file.pos_;
    std::string name;
    uint64_t size = 0;
    const char* payload = nullptr;
    EALGAP_RETURN_IF_ERROR(file.ReadString("section name", &name));
    EALGAP_RETURN_IF_ERROR(file.ReadCount("section size", 1, &size));
    EALGAP_RETURN_IF_ERROR(file.Take(name, size, &payload));
    const uint32_t crc = Crc32(b.data() + start, file.pos_ - start);
    EALGAP_RETURN_IF_ERROR(file.ReadU32("section crc", &stored));
    if (stored != crc) {
      return CrcMismatch("section '" + name + "'", path, stored, crc);
    }
    for (const Entry& e : r.sections_) {
      if (e.name == name) {
        return Status::ParseError("duplicate section '" + name + "' in " +
                                  path);
      }
    }
    r.sections_.push_back({std::move(name),
                           static_cast<size_t>(payload - b.data()),
                           static_cast<size_t>(size)});
  }
  EALGAP_RETURN_IF_ERROR(file.Finish());
  return r;
}

Result<RecordSection> RecordReader::Section(std::string_view name) const {
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].name == name) return SectionAt(i);
  }
  return Status::ParseError("missing section '" + std::string(name) +
                            "' in " + path_);
}

RecordSection RecordReader::SectionAt(size_t index) const {
  const Entry& e = sections_.at(index);
  return RecordSection(&path_, &e.name, bytes_.data() + e.offset, e.size);
}

Result<std::string> RecordReader::StringSection(std::string_view name) const {
  EALGAP_ASSIGN_OR_RETURN(RecordSection section, Section(name));
  std::string value;
  EALGAP_RETURN_IF_ERROR(section.ReadString("value", &value));
  EALGAP_RETURN_IF_ERROR(section.Finish());
  return value;
}

// --- RecordSection -----------------------------------------------------------

Status RecordSection::Error(std::string_view field,
                            std::string_view what) const {
  return Status::ParseError(std::string(what) + " in section '" + *name_ +
                            "' field '" + std::string(field) + "' of " +
                            *path_);
}

Status RecordSection::Take(std::string_view field, size_t n,
                           const char** out) {
  if (n > remaining()) {
    return Error(field, "needs " + std::to_string(n) + " bytes but " +
                            std::to_string(remaining()) + " remain");
  }
  *out = data_ + pos_;
  pos_ += n;
  return Status::OK();
}

Status RecordSection::ReadString(std::string_view field, std::string* out) {
  uint32_t n = 0;
  const char* p = nullptr;
  EALGAP_RETURN_IF_ERROR(ReadU32(field, &n));
  EALGAP_RETURN_IF_ERROR(Take(field, n, &p));
  out->assign(p, n);
  return Status::OK();
}

Status RecordSection::ReadI64In(std::string_view field, int64_t lo,
                                int64_t hi, int64_t* out) {
  EALGAP_RETURN_IF_ERROR(ReadI64(field, out));
  if (*out < lo || *out > hi) {
    return Error(field, std::string(field) + " = " + std::to_string(*out) +
                            " out of range [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]");
  }
  return Status::OK();
}

Status RecordSection::ReadCount(std::string_view field, size_t min_item_bytes,
                                uint64_t* out) {
  EALGAP_RETURN_IF_ERROR(ReadU64(field, out));
  if (*out > remaining() / min_item_bytes) {
    return Error(field, "count " + std::to_string(*out) + " exceeds the " +
                            std::to_string(remaining()) + " bytes left");
  }
  return Status::OK();
}

Status RecordSection::ReadF32Values(std::string_view field, float* dst,
                                    size_t n) {
  const char* p = nullptr;
  if (n > remaining() / sizeof(float)) {
    return Error(field, std::to_string(n) + " values exceed the " +
                            std::to_string(remaining()) + " bytes left");
  }
  EALGAP_RETURN_IF_ERROR(Take(field, n * sizeof(float), &p));
  std::memcpy(dst, p, n * sizeof(float));
  return Status::OK();
}

Status RecordSection::ReadShape(std::string_view field,
                                std::vector<int64_t>* dims, int64_t* numel) {
  uint32_t rank = 0;
  EALGAP_RETURN_IF_ERROR(ReadU32(field, &rank));
  if (rank > kMaxRank) {
    return Error(field, "rank " + std::to_string(rank) + " exceeds " +
                            std::to_string(kMaxRank));
  }
  dims->assign(rank, 0);
  for (uint32_t i = 0; i < rank; ++i) {
    EALGAP_RETURN_IF_ERROR(ReadI64(field, &(*dims)[i]));
    // A zero or negative dimension must never reach tensor allocation.
    if ((*dims)[i] < 1) {
      return Error(field, "dimension " + std::to_string(i) + " is " +
                              std::to_string((*dims)[i]) + " (must be >= 1)");
    }
  }
  const uint64_t limit = remaining() / sizeof(float);
  uint64_t n = 1;
  for (int64_t d : *dims) {
    if (static_cast<uint64_t>(d) > limit / n) {
      return Error(field, "shape needs more values than the " +
                              std::to_string(remaining()) + " bytes left");
    }
    n *= static_cast<uint64_t>(d);
  }
  *numel = static_cast<int64_t>(n);
  return Status::OK();
}

Status RecordSection::Finish() const {
  if (remaining() == 0) return Status::OK();
  return Status::ParseError(std::to_string(remaining()) +
                            " unread bytes at the end of section '" + *name_ +
                            "' of " + *path_);
}

}  // namespace ealgap
