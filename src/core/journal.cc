#include "core/journal.h"

#include "common/record_io.h"

namespace ealgap {
namespace core {

namespace {

constexpr char kJournalKind[] = "journal";
// v2: a record file (common/record_io.h); the v1 text layout is not read.
constexpr uint32_t kJournalVersion = 2;

Status ReadCell(RecordSection& section, JournalEntry* entry) {
  int64_t ok = 0;
  EALGAP_RETURN_IF_ERROR(section.ReadString("city", &entry->city));
  EALGAP_RETURN_IF_ERROR(section.ReadString("period", &entry->period));
  EALGAP_RETURN_IF_ERROR(section.ReadString("scheme", &entry->scheme));
  EALGAP_RETURN_IF_ERROR(section.ReadI64In("ok", 0, 1, &ok));
  entry->ok = ok == 1;
  if (entry->ok) {
    stats::MetricReport& m = entry->metrics;
    EALGAP_RETURN_IF_ERROR(section.ReadF64("er", &m.er));
    EALGAP_RETURN_IF_ERROR(section.ReadF64("msle", &m.msle));
    EALGAP_RETURN_IF_ERROR(section.ReadF64("r2", &m.r2));
    EALGAP_RETURN_IF_ERROR(section.ReadF64("rmse", &m.rmse));
    EALGAP_RETURN_IF_ERROR(section.ReadF64("mae", &m.mae));
  } else {
    EALGAP_RETURN_IF_ERROR(section.ReadString("error", &entry->error));
  }
  return section.Finish();
}

}  // namespace

Status ExperimentJournal::Load() {
  entries_.clear();
  auto reader = RecordReader::Open(path_, kJournalKind, kJournalVersion);
  if (!reader.ok()) {
    // A missing file is a fresh sweep: nothing recorded yet.
    return reader.status().code() == StatusCode::kNotFound ? Status::OK()
                                                           : reader.status();
  }
  std::vector<JournalEntry> entries(reader->section_count());
  for (size_t i = 0; i < entries.size(); ++i) {
    RecordSection section = reader->SectionAt(i);
    EALGAP_RETURN_IF_ERROR(ReadCell(section, &entries[i]));
  }
  entries_ = std::move(entries);
  return Status::OK();
}

bool ExperimentJournal::Has(const std::string& city, const std::string& period,
                            const std::string& scheme) const {
  return Find(city, period, scheme) != nullptr;
}

const JournalEntry* ExperimentJournal::Find(const std::string& city,
                                            const std::string& period,
                                            const std::string& scheme) const {
  for (const JournalEntry& e : entries_) {
    if (e.city == city && e.period == period && e.scheme == scheme) return &e;
  }
  return nullptr;
}

Status ExperimentJournal::Record(const JournalEntry& entry) {
  entries_.push_back(entry);
  RecordWriter writer(kJournalKind, kJournalVersion);
  for (size_t i = 0; i < entries_.size(); ++i) {
    const JournalEntry& e = entries_[i];
    writer.Section("cell." + std::to_string(i))
        .PutString(e.city)
        .PutString(e.period)
        .PutString(e.scheme)
        .PutI64(e.ok ? 1 : 0);
    if (e.ok) {
      writer.PutF64(e.metrics.er)
          .PutF64(e.metrics.msle)
          .PutF64(e.metrics.r2)
          .PutF64(e.metrics.rmse)
          .PutF64(e.metrics.mae);
    } else {
      writer.PutString(e.error);
    }
  }
  Status st = writer.Commit(path_);
  if (!st.ok()) {
    // The cell is not durably recorded; do not pretend otherwise in memory.
    entries_.pop_back();
  }
  return st;
}

}  // namespace core
}  // namespace ealgap
