// Deterministic mutation test of every on-disk loader: the model
// checkpoint, the train state, the serve state, the adapt state and the
// experiment journal all go through common/record_io, and each one must
// answer a damaged file with a Status — never a crash, an over-read, or an
// allocation sized by a field the file cannot back.
//
// The fixtures are small and built from fixed seeds, and every mutation
// budget is a constant, so a failure reproduces exactly:
//   * every truncation length and every single-bit flip is rejected;
//   * a duplicated section is rejected;
//   * a section spliced in from another file or format loads or is
//     rejected, but never crashes;
//   * a length or count field inflated to 2^62 (or 2^30 for u32 fields),
//     re-framed with valid CRCs so the loader's own bounds checks run, is
//     rejected or loads, and the load allocates no more than a clean load
//     plus the file's size (and a fixed allowance for the error message).
// ASan and UBSan (scripts/ci.sh) turn any over-read or undefined arithmetic
// on these paths into a failure.

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_count.h"
#include "common/checksum.h"
#include "common/record_io.h"
#include "baselines/recurrent.h"
#include "common/rng.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "serve/adaptive_predictor.h"
#include "serve/online_predictor.h"
#include "tests/record_test_util.h"

namespace ealgap {
namespace {

using testing_record::RecordFormat;

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Plain write (no fsync): mutated copies are scratch files.
void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A scratch copy of a file mutated in place: one pwrite per flipped byte
/// and one ftruncate per cut keep the exhaustive loops fast, where
/// rewriting the whole file per mutation would dominate.
class ScratchCopy {
 public:
  ScratchCopy(const std::string& path, const std::string& bytes)
      : path_(path), bytes_(bytes) {
    WriteBytes(path_, bytes_);
    fd_ = ::open(path_.c_str(), O_RDWR);
    EXPECT_GE(fd_, 0) << path_;
  }
  ~ScratchCopy() { ::close(fd_); }
  ScratchCopy(const ScratchCopy&) = delete;
  ScratchCopy& operator=(const ScratchCopy&) = delete;

  const std::string& path() const { return path_; }
  void Write(size_t offset, std::string_view bytes) {
    ASSERT_EQ(::pwrite(fd_, bytes.data(), bytes.size(),
                       static_cast<off_t>(offset)),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Puts the original bytes back over [offset, offset + n).
  void Restore(size_t offset, size_t n) {
    Write(offset, std::string_view(bytes_).substr(offset, n));
  }
  void Truncate(size_t size) {
    ASSERT_EQ(::ftruncate(fd_, static_cast<off_t>(size)), 0);
  }

 private:
  std::string path_;
  const std::string& bytes_;
  int fd_ = -1;
};

/// Where one section sits in a record file (layout in common/record_io.h).
struct SectionSpan {
  std::string name;
  size_t start;    ///< first byte of the section (its name length)
  size_t payload;  ///< first payload byte
  size_t size;     ///< payload bytes; the u32 CRC follows
};

/// Walks the framing of a well-formed record file.
std::vector<SectionSpan> SectionSpans(const std::string& bytes) {
  auto u32_at = [&](size_t pos) {
    uint32_t v = 0;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    return v;
  };
  size_t pos = 8;                   // magic
  pos += 4 + u32_at(pos);           // kind
  const uint32_t count = u32_at(pos + 4);
  pos += 12;                        // version, count, header CRC
  std::vector<SectionSpan> spans;
  for (uint32_t i = 0; i < count; ++i) {
    SectionSpan span;
    span.start = pos;
    const uint32_t name_bytes = u32_at(pos);
    span.name = bytes.substr(pos + 4, name_bytes);
    pos += 4 + name_bytes;
    uint64_t size = 0;
    std::memcpy(&size, bytes.data() + pos, sizeof(size));
    span.payload = pos + 8;
    span.size = static_cast<size_t>(size);
    pos = span.payload + span.size + 4;
    spans.push_back(span);
  }
  EXPECT_EQ(pos, bytes.size());
  return spans;
}

/// One saved file of one format, plus the public entry point that loads it.
struct Target {
  std::string name;
  RecordFormat format;
  std::string path;   ///< the pristine file
  std::string bytes;  ///< its contents
  std::function<Status(const std::string&)> load;
};

core::EalgapOptions SmallOptions() {
  core::EalgapOptions options;
  options.hidden = 4;
  options.gru_hidden = 2;
  return options;
}

/// Everything the five loaders need, built once from fixed seeds.
struct Fixtures {
  data::SlidingWindowDataset dataset;
  data::StepRanges split;
  TrainConfig train;
  std::unique_ptr<core::EalgapForecaster> model;
  std::unique_ptr<serve::AdaptivePredictor> adaptive;
  std::vector<Target> targets;
  /// A second file of each format, written from a different state, for
  /// same-name splices.
  std::vector<std::string> other_paths;

  static std::string Path(const std::string& name) {
    return ::testing::TempDir() + "/record_io_" + name;
  }

  static std::unique_ptr<Fixtures> Make() {
    auto f = std::make_unique<Fixtures>();
    data::RegionSeriesConfig cfg;
    cfg.num_regions = 2;
    cfg.num_days = 16;
    cfg.seed = 17;
    auto dataset = data::SlidingWindowDataset::Create(
        data::GenerateRegionSeries(cfg), data::DatasetOptions{});
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    f->dataset = std::move(dataset).value();
    data::SplitSpec spec;
    spec.val_days = 2;
    spec.test_days = 3;
    auto split = data::MakeChronoSplit(f->dataset, spec);
    EXPECT_TRUE(split.ok()) << split.status().ToString();
    f->split = *split;

    // One epoch with a train-state snapshot at its end.
    const std::string train_state = Path("pristine.train");
    std::remove(train_state.c_str());
    f->train.epochs = 1;
    f->train.seed = 5;
    f->train.batch_size = 64;
    f->train.checkpoint_path = train_state;
    f->train.checkpoint_every = 1;
    f->model = std::make_unique<core::EalgapForecaster>(SmallOptions());
    EXPECT_TRUE(f->model->Fit(f->dataset, f->split, f->train).ok());

    const std::string checkpoint = Path("pristine.ckpt");
    EXPECT_TRUE(f->model->SaveCheckpoint(checkpoint).ok());

    auto adaptive = serve::AdaptivePredictor::Create(f->model.get());
    EXPECT_TRUE(adaptive.ok()) << adaptive.status().ToString();
    f->adaptive = std::move(adaptive).value();
    auto stream = serve::OnlinePredictor::Create(f->adaptive.get(), f->dataset,
                                                 f->split.test_begin);
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    const std::string serve_state = Path("pristine.state");
    const std::string adapt_state = Path("pristine.adapt");
    // Serve a few steps so the detector and the rings hold real values;
    // save midway too, for the same-name splice donors.
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(stream->PredictNext().ok());
      const std::vector<float> row = f->dataset.StepCounts(stream->next_step());
      EXPECT_TRUE(stream->Observe(std::vector<double>(row.begin(), row.end()))
                      .ok());
      if (i == 2) {
        EXPECT_TRUE(stream->SaveState(Path("other.state")).ok());
        EXPECT_TRUE(f->adaptive->SaveState(Path("other.adapt")).ok());
      }
    }
    EXPECT_TRUE(stream->SaveState(serve_state).ok());
    EXPECT_TRUE(f->adaptive->SaveState(adapt_state).ok());

    const std::string journal = Path("pristine.journal");
    std::remove(journal.c_str());
    {
      core::ExperimentJournal j(journal);
      core::JournalEntry ok_cell;
      ok_cell.city = "nyc_bike";
      ok_cell.period = "weather";
      ok_cell.scheme = "EALGAP";
      ok_cell.metrics.er = 0.1;
      ok_cell.metrics.r2 = -0.0;
      EXPECT_TRUE(j.Record(ok_cell).ok());
      core::JournalEntry failed;
      failed.city = "chicago_taxi";
      failed.period = "holiday";
      failed.scheme = "GRU";
      failed.ok = false;
      failed.error = "Internal: GRU diverged";
      EXPECT_TRUE(j.Record(failed).ok());
    }

    // Same-name splice donors for the checkpoint, train state and journal:
    // a GRU checkpoint, a two-epoch train state, a one-cell journal.
    {
      RecurrentForecaster gru(RecurrentKind::kGru, 2);
      TrainConfig plain;
      plain.epochs = 0;
      EXPECT_TRUE(gru.Fit(f->dataset, f->split, plain).ok());
      EXPECT_TRUE(gru.SaveCheckpoint(Path("other.ckpt")).ok());
      TrainConfig two = f->train;
      two.epochs = 2;
      two.checkpoint_path = Path("other.train");
      std::remove(two.checkpoint_path.c_str());
      core::EalgapForecaster m(SmallOptions());
      EXPECT_TRUE(m.Fit(f->dataset, f->split, two).ok());
      const std::string other_journal = Path("other.journal");
      std::remove(other_journal.c_str());
      core::ExperimentJournal j(other_journal);
      core::JournalEntry cell;
      cell.city = "nyc_taxi";
      cell.period = "normal";
      cell.scheme = "HA";
      EXPECT_TRUE(j.Record(cell).ok());
    }

    Fixtures* fx = f.get();
    f->targets.push_back(
        {"checkpoint", testing_record::kCheckpoint, checkpoint, "",
         [](const std::string& path) {
           return core::LoadForecasterFromCheckpoint(path).status();
         }});
    f->targets.push_back(
        {"train-state", testing_record::kTrainState, train_state, "",
         [fx](const std::string& path) {
           // Resuming at the snapshot's own epoch runs no training: the
           // call is the load plus the resume checks.
           TrainConfig resume = fx->train;
           resume.checkpoint_path = path;
           resume.resume = true;
           core::EalgapForecaster m(SmallOptions());
           return m.Fit(fx->dataset, fx->split, resume);
         }});
    f->targets.push_back(
        {"serve-state", testing_record::kServeState, serve_state, "",
         [fx](const std::string& path) {
           return serve::OnlinePredictor::LoadState(path, fx->model.get())
               .status();
         }});
    f->targets.push_back({"adapt-state", testing_record::kAdaptState,
                          adapt_state, "", [fx](const std::string& path) {
                            return fx->adaptive->LoadState(path);
                          }});
    f->targets.push_back({"journal", testing_record::kJournal, journal, "",
                          [](const std::string& path) {
                            return core::ExperimentJournal(path).Load();
                          }});
    f->other_paths = {Path("other.ckpt"), Path("other.train"),
                      Path("other.state"), Path("other.adapt"),
                      Path("other.journal")};
    for (Target& t : f->targets) t.bytes = ReadBytes(t.path);
    return f;
  }
};

/// Reaches the protected train-state pair, for the save -> load -> save
/// identity (Fit only ever saves after training an epoch).
class TrainStateProbe : public core::EalgapForecaster {
 public:
  TrainStateProbe() : core::EalgapForecaster(SmallOptions()) {}
  Status Resave(const std::string& in, const std::string& out) {
    TrainSnapshot snap;
    EALGAP_RETURN_IF_ERROR(LoadTrainState(in, &snap));
    return SaveTrainState(out, snap);
  }
};

class RecordIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixtures_ = Fixtures::Make().release(); }
  static void TearDownTestSuite() {
    delete fixtures_;
    fixtures_ = nullptr;
  }

  static Fixtures* fixtures_;
};

Fixtures* RecordIoTest::fixtures_ = nullptr;

TEST_F(RecordIoTest, PristineFilesLoadAndResaveByteIdentically) {
  const Fixtures& f = *fixtures_;
  for (const Target& t : f.targets) {
    const Status st = t.load(t.path);
    EXPECT_TRUE(st.ok()) << t.name << ": " << st.ToString();
  }
  const std::string resaved = Fixtures::Path("resaved");
  auto expect_same = [&](const Target& t) {
    EXPECT_EQ(ReadBytes(resaved), t.bytes)
        << t.name << ": save -> load -> save changed the file";
  };

  auto model = core::LoadForecasterFromCheckpoint(f.targets[0].path);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE((*model)->SaveCheckpoint(resaved).ok());
  expect_same(f.targets[0]);

  TrainStateProbe probe;
  ASSERT_TRUE(probe.Resave(f.targets[1].path, resaved).ok());
  expect_same(f.targets[1]);

  auto stream =
      serve::OnlinePredictor::LoadState(f.targets[2].path, f.model.get());
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  ASSERT_TRUE(stream->SaveState(resaved).ok());
  expect_same(f.targets[2]);

  ASSERT_TRUE(f.adaptive->LoadState(f.targets[3].path).ok());
  ASSERT_TRUE(f.adaptive->SaveState(resaved).ok());
  expect_same(f.targets[3]);

  // The journal only saves on Record(): load a one-cell copy, record the
  // second cell, and the result must equal the two-cell original.
  std::remove(resaved.c_str());
  {
    core::ExperimentJournal first(resaved);
    core::ExperimentJournal full(f.targets[4].path);
    ASSERT_TRUE(full.Load().ok());
    ASSERT_EQ(full.entries().size(), 2u);
    ASSERT_TRUE(first.Record(full.entries()[0]).ok());
    core::ExperimentJournal reloaded(resaved);
    ASSERT_TRUE(reloaded.Load().ok());
    ASSERT_TRUE(reloaded.Record(full.entries()[1]).ok());
  }
  expect_same(f.targets[4]);
}

TEST_F(RecordIoTest, EveryTruncationIsRejected) {
  for (const Target& t : fixtures_->targets) {
    ScratchCopy copy(Fixtures::Path("mutant"), t.bytes);
    for (size_t len = t.bytes.size(); len-- > 0;) {
      copy.Truncate(len);
      const Status st = t.load(copy.path());
      ASSERT_FALSE(st.ok()) << t.name << " truncated to " << len << " of "
                            << t.bytes.size() << " bytes loaded";
    }
  }
}

TEST_F(RecordIoTest, EverySingleBitFlipIsRejected) {
  for (const Target& t : fixtures_->targets) {
    ScratchCopy copy(Fixtures::Path("mutant"), t.bytes);
    for (size_t i = 0; i < t.bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        const char flipped = static_cast<char>(t.bytes[i] ^ (1 << bit));
        copy.Write(i, std::string_view(&flipped, 1));
        const Status st = t.load(copy.path());
        ASSERT_FALSE(st.ok()) << t.name << ": flip of bit " << bit
                              << " in byte " << i << " loaded";
      }
      copy.Restore(i, 1);
    }
  }
}

/// Re-frames `t`'s pristine file through RecordWriter: `emit` writes the
/// sections (valid CRCs throughout) and the result is loaded.
Status LoadReframed(const Target& t,
                    const std::function<void(const RecordReader&,
                                             RecordWriter&)>& emit) {
  auto reader = RecordReader::Open(t.path, t.format.kind, t.format.version);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return reader.status();
  RecordWriter writer(t.format.kind, t.format.version);
  emit(*reader, writer);
  const std::string path = Fixtures::Path("reframed");
  EXPECT_TRUE(writer.Commit(path).ok());
  return t.load(path);
}

void CopySection(const RecordSection& section, RecordWriter& writer) {
  writer.Section(section.name()).PutBytes(section.bytes());
}

TEST_F(RecordIoTest, DuplicatedSectionsAreRejected) {
  for (const Target& t : fixtures_->targets) {
    const size_t n = SectionSpans(t.bytes).size();
    for (size_t dup = 0; dup < n; ++dup) {
      const Status st =
          LoadReframed(t, [&](const RecordReader& r, RecordWriter& w) {
            for (size_t i = 0; i < r.section_count(); ++i) {
              CopySection(r.SectionAt(i), w);
              if (i == dup) CopySection(r.SectionAt(i), w);
            }
          });
      ASSERT_FALSE(st.ok()) << t.name << ": section " << dup
                            << " duplicated and still loaded";
      EXPECT_NE(st.message().find("duplicate section"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST_F(RecordIoTest, SplicedSectionsReturnAStatusNeverACrash) {
  const Fixtures& f = *fixtures_;
  int loaded = 0, rejected = 0;
  // Donors: the second file of the same format, then every other format.
  for (size_t a = 0; a < f.targets.size(); ++a) {
    const Target& t = f.targets[a];
    std::vector<std::pair<std::string, RecordFormat>> donors = {
        {f.other_paths[a], t.format}};
    for (size_t b = 0; b < f.targets.size(); ++b) {
      if (b != a) donors.emplace_back(f.targets[b].path, f.targets[b].format);
    }
    for (const auto& [donor_path, donor_format] : donors) {
      auto donor = RecordReader::Open(donor_path, donor_format.kind,
                                      donor_format.version);
      ASSERT_TRUE(donor.ok()) << donor.status().ToString();
      for (size_t s = 0; s < donor->section_count(); ++s) {
        const RecordSection spliced = donor->SectionAt(s);
        // Replace the same-named section, or append a foreign one.
        const Status st =
            LoadReframed(t, [&](const RecordReader& r, RecordWriter& w) {
              bool replaced = false;
              for (size_t i = 0; i < r.section_count(); ++i) {
                const RecordSection own = r.SectionAt(i);
                if (own.name() == spliced.name()) {
                  CopySection(spliced, w);
                  replaced = true;
                } else {
                  CopySection(own, w);
                }
              }
              if (!replaced) CopySection(spliced, w);
            });
        (st.ok() ? loaded : rejected)++;
      }
    }
  }
  // Most splices break a semantic check; the count guards against a
  // loop that silently ran nothing.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded + rejected, 50);
}

TEST_F(RecordIoTest, InflatedLengthsReturnAStatusAndAllocateWithinTheFile) {
  // Every offset in the first bytes of each payload (where counts, lengths,
  // ranks and dims live), plus a seeded sample of the rest.
  constexpr size_t kHeadBytes = 96;
  constexpr int kSampledOffsets = 24;
  const bool counting = alloc_count::HookLinked();
  Rng rng(2024);
  int loads = 0;
  for (const Target& t : fixtures_->targets) {
    const int64_t before = alloc_count::ThreadAllocatedBytes();
    ASSERT_TRUE(t.load(t.path).ok());
    const int64_t clean_bytes = alloc_count::ThreadAllocatedBytes() - before;
    // A fixed allowance covers composing an error message.
    constexpr int64_t kMessageBytes = 4096;
    const int64_t budget =
        clean_bytes + static_cast<int64_t>(t.bytes.size()) + kMessageBytes;

    ScratchCopy copy(Fixtures::Path("mutant"), t.bytes);
    for (const SectionSpan& span : SectionSpans(t.bytes)) {
      std::vector<size_t> offsets;
      for (size_t k = 0; k < std::min(span.size, kHeadBytes); ++k) {
        offsets.push_back(k);
      }
      for (int k = 0; k < kSampledOffsets && span.size > kHeadBytes; ++k) {
        offsets.push_back(kHeadBytes + rng.UniformInt(span.size - kHeadBytes));
      }
      for (size_t k : offsets) {
        for (const uint64_t value : {uint64_t{1} << 62, uint64_t{1} << 30}) {
          const size_t width = value > UINT32_MAX ? 8 : 4;
          if (k + width > span.size) continue;
          // Poke the value, then re-seal the section CRC so the framing
          // is valid and the loader's own bounds checks have to hold.
          std::string mutant = t.bytes;
          std::memcpy(mutant.data() + span.payload + k, &value, width);
          const uint32_t crc = Crc32(mutant.data() + span.start,
                                     span.payload + span.size - span.start);
          std::memcpy(mutant.data() + span.payload + span.size, &crc, 4);
          copy.Write(span.payload + k, std::string_view(mutant).substr(
                                           span.payload + k, width));
          copy.Write(span.payload + span.size,
                     std::string_view(mutant).substr(
                         span.payload + span.size, 4));

          const int64_t start = alloc_count::ThreadAllocatedBytes();
          const Status st = t.load(copy.path());
          const int64_t used = alloc_count::ThreadAllocatedBytes() - start;
          ++loads;
          if (counting) {
            ASSERT_LE(used, budget)
                << t.name << " section '" << span.name << "' offset " << k
                << " = " << value << " allocated " << used
                << " bytes; a clean load takes " << clean_bytes << " ("
                << st.ToString() << ")";
          }
          copy.Restore(span.payload + k, width);
          copy.Restore(span.payload + span.size, 4);
        }
      }
    }
  }
  EXPECT_GT(loads, 1000);
}

}  // namespace
}  // namespace ealgap
