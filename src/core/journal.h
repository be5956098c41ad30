#ifndef EALGAP_CORE_JOURNAL_H_
#define EALGAP_CORE_JOURNAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "stats/metrics.h"

namespace ealgap {
namespace core {

/// One completed sweep cell: a (city, period, scheme) triple with either
/// its test metrics or the error that failed it. Deliberately carries no
/// wall-clock fields, so the journal of a clean sweep and the journal of an
/// interrupted-then-resumed sweep are byte-identical (the CI resume stage
/// diffs them).
struct JournalEntry {
  std::string city;    ///< data::CityName, e.g. "nyc_bike"
  std::string period;  ///< data::PeriodName, e.g. "weather"
  std::string scheme;  ///< table scheme, e.g. "EALGAP"
  bool ok = true;
  std::string error;            ///< status summary when !ok
  stats::MetricReport metrics;  ///< valid only when ok
};

/// Crash-safe progress record of an experiment sweep.
///
/// A "journal" record file (common/record_io.h) with one CRC'd section per
/// completed cell, named cell.<index>; metric doubles are stored as raw
/// bits so a reloaded journal reproduces them exactly. Record() rewrites
/// the whole file atomically (RecordWriter::Commit), so a crash at any
/// point — including mid-record — leaves a loadable journal describing
/// exactly the cells that finished. `ealgap_tool experiment --resume`
/// loads it and skips every cell already present.
class ExperimentJournal {
 public:
  explicit ExperimentJournal(std::string path) : path_(std::move(path)) {}

  /// Loads the journal at the path. A missing file is an empty journal
  /// (fresh sweep); a malformed or corrupt one is an error — silently
  /// restarting over bad state would hide the corruption.
  Status Load();

  bool Has(const std::string& city, const std::string& period,
           const std::string& scheme) const;
  const JournalEntry* Find(const std::string& city, const std::string& period,
                           const std::string& scheme) const;

  /// Appends one finished cell and atomically rewrites the file. An I/O
  /// failure here must abort the sweep (the caller cannot claim progress it
  /// did not persist).
  Status Record(const JournalEntry& entry);

  const std::vector<JournalEntry>& entries() const { return entries_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::vector<JournalEntry> entries_;
};

}  // namespace core
}  // namespace ealgap

#endif  // EALGAP_CORE_JOURNAL_H_
