// ealgap_tool — command-line front end for the library's pipeline.
//
// Subcommands:
//   generate  --out-trips T.csv --out-stations S.csv [--city nyc_bike]
//             [--period weather] [--seed N] [--scale F]
//       Synthesizes a city and writes the raw trip/station feeds.
//
//   inspect   --trips T.csv --stations S.csv
//       Prints feed statistics: record counts, date range, cleaning report.
//
//   evaluate  --trips T.csv --stations S.csv --start YYYY-MM-DD --days N
//             [--regions K] [--scheme EALGAP] [--epochs N] [--save model.ckpt]
//             [--train-state path --checkpoint-every K [--resume]]
//       Runs the full pipeline on a trip feed, trains the scheme, and
//       reports the test metrics. --save checkpoints the fitted model.
//       --train-state writes a crash-safe full-training-state snapshot
//       every --checkpoint-every epochs; with --resume an interrupted run
//       continues from it bit-identically to an uninterrupted one.
//
//   experiment [--cities A,B] [--periods normal,weather] [--schemes X,Y]
//              [--epochs N] [--scale F] [--seed N] [--journal sweep.journal]
//              [--resume] [--state-dir DIR] [--checkpoint-every K]
//       Sweeps cities x periods x schemes, training and evaluating every
//       cell. Each finished cell is recorded atomically in --journal, so
//       an interrupted sweep rerun with --resume skips completed cells.
//       A scheme that fails (e.g. diverges past its rollback budget) is
//       recorded as a failed cell without aborting the sweep. --state-dir
//       adds per-cell train-state checkpoints every --checkpoint-every
//       epochs, letting --resume continue even mid-cell.
//
//   serve     --trips T.csv --stations S.csv --start YYYY-MM-DD --days N
//             --checkpoint model.ckpt [--regions K] [--seed N]
//             [--repair reject|hold-last|impute] [--deadline-ms D]
//             [--recovery K] [--adapt [--adapt-* knobs]]
//       Loads a checkpointed model, seeds an OnlinePredictor at the start
//       of the test range, and replays the test feed step by step
//       (predict, then observe the realized counts) through the
//       fault-tolerant serving chain, reporting metrics, per-prediction
//       latency, and degradation/guard statistics. --repair sets the
//       input-guard policy for bad values and gaps; --deadline-ms bounds
//       the model's answer time (0 = unbounded); --recovery is the
//       hysteresis: consecutive healthy model answers needed to promote
//       back from a fallback. --adapt serves through the
//       test-time-adaptation wrapper (DESIGN.md §8h): a per-region CUSUM
//       drift detector over matched-stat residuals triggers bounded
//       micro-fine-tunes on the recent window, committed only when
//       held-out validation improves (otherwise rolled back bit-exactly),
//       with a sticky freeze after --adapt-freeze-after consecutive
//       failures and probe-based recovery after --adapt-probe-after
//       observed steps. Knobs:
//       --adapt-cusum-k/-h (detector allowance/threshold),
//       --adapt-window/-holdout/-min-window (ring sizing),
//       --adapt-cooldown, --adapt-steps/--adapt-lr (micro-fit), and
//       --adapt-shadow-every (frozen-arm A/B cadence). The report adds
//       adaptation attribution and the adapted-vs-frozen ER/MSLE A/B
//       table; exit 3 if any attempt goes unattributed. Arm EALGAP_FAULTS
//       (see src/common/fault_injection.h) to rehearse failures,
//       including serve.adapt.{nan,error,delay,reject}.
//
//   daemon    [--shards N] [--regions-per-shard R] [--days D] [--epochs E]
//             [--ticks T] [--seed S] [--threads W] [--state-dir DIR]
//             [--queue-capacity C] [--batch-max B] [--deadline-ticks K]
//             [--ms-per-tick MS] [--model-deadline-ms MS]
//             [--checkpoint-every K] [--steady-rate X] [--steady-ticks A]
//             [--burst-rate Y] [--burst-ticks B] [--load-seed S]
//             [--adapt [--adapt-* knobs]]
//       Overload-safe sharded serving soak (DESIGN.md §8f): builds a
//       synthetic fleet of N shards (R regions each), fits a small EALGAP
//       model per shard, and drives T virtual-time ticks of seeded
//       open-loop load (cycling steady/burst phases) through bounded
//       queues, admission control, deadline budgets, and the
//       watchdog-supervised restart path. Prints the SLO report
//       (throughput, latency percentiles, full shed/degraded/restart
//       attribution, per-region guard quarantines) and the replay digest;
//       exits non-zero if any request went unattributed. --state-dir
//       enables on-disk CRC'd checkpoints so restarts rehearse the
//       recover-from-disk path. --adapt (same knobs as serve) adds
//       per-shard test-time adaptation, run single-threaded from the
//       supervisor phase; committed adaptations re-save the shard's model
//       checkpoint and persist the detector state, so quarantine-restarts
//       resume the adapted weights and drift posture. The SLO report
//       folds adaptation attribution across restarts; exit 3 if any
//       attempt goes unattributed. Arm EALGAP_FAULTS with
//       daemon.queue.full / daemon.shard.stall / daemon.shard.crash (plus
//       the nn.* and serve.adapt.* sites) for chaos soaks.
//
// Every subcommand accepts exactly the flags listed in kSubcommands below;
// any other flag is an error that names it (exit 2).
//
// Exit code 0 on success; errors go to stderr.

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "data/aggregate.h"
#include "data/cleaning.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/synthetic_city.h"
#include "data/trip.h"
#include "serve/daemon.h"
#include "serve/stack.h"
#include "stats/descriptive.h"
#include "stats/metrics.h"

namespace {

using namespace ealgap;

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

int Generate(const Flags& flags) {
  data::City city = data::City::kNycBike;
  for (data::City c : data::AllCities()) {
    if (flags.GetString("city", "nyc_bike") == data::CityName(c)) city = c;
  }
  data::Period period = data::Period::kNormal;
  const std::string p = flags.GetString("period", "normal");
  if (p == "weather") period = data::Period::kWeather;
  if (p == "holiday") period = data::Period::kHoliday;
  data::PeriodConfig config = data::MakePeriodConfig(
      city, period, flags.GetInt("seed", 7), flags.GetDouble("scale", 1.0));
  auto generated = data::GenerateCity(config.generator);
  if (!generated.ok()) return Fail(generated.status());
  const std::string trips = flags.GetString("out-trips", "trips.csv");
  const std::string stations = flags.GetString("out-stations", "stations.csv");
  Status s = data::WriteTripsCsv(trips, generated->trips);
  if (!s.ok()) return Fail(s);
  s = data::WriteStationsCsv(stations, generated->stations);
  if (!s.ok()) return Fail(s);
  std::cout << "wrote " << generated->trips.size() << " trips to " << trips
            << " and " << generated->stations.size() << " stations to "
            << stations << "\n";
  std::cout << "series starts " << FormatDate(config.generator.start_date)
            << " and spans " << config.generator.num_days << " days\n";
  return 0;
}

int Inspect(const Flags& flags) {
  auto trips = data::ReadTripsCsv(flags.GetString("trips", "trips.csv"));
  if (!trips.ok()) return Fail(trips.status());
  auto stations =
      data::ReadStationsCsv(flags.GetString("stations", "stations.csv"));
  if (!stations.ok()) return Fail(stations.status());
  int64_t min_ts = INT64_MAX, max_ts = INT64_MIN;
  for (const auto& t : *trips) {
    if (t.start_seconds > 0) {
      min_ts = std::min(min_ts, t.start_seconds);
      max_ts = std::max(max_ts, t.start_seconds);
    }
  }
  std::cout << "trips: " << trips->size() << "\n";
  std::cout << "stations: " << stations->size() << "\n";
  if (min_ts <= max_ts) {
    std::cout << "first pick-up: " << FormatTimestamp(FromUnixSeconds(min_ts))
              << "\nlast pick-up:  " << FormatTimestamp(FromUnixSeconds(max_ts))
              << "\n";
  }
  std::vector<data::Station> station_copy = *stations;
  data::CleaningOptions cleaning;
  data::CleaningReport report;
  auto clean = data::CleanTrips(*trips, station_copy, cleaning, &report);
  std::cout << "cleaning would drop: " << report.removed_bad_timestamps
            << " bad-timestamp, " << report.removed_short
            << " sub-minute trips (keeping " << report.kept << ")\n";
  return 0;
}

/// Shared by evaluate and serve: trips CSV -> cleaned, partitioned,
/// windowed, chronologically split dataset. The pipeline is deterministic
/// in its flags, so `serve` rebuilds the exact dataset `evaluate`
/// checkpointed against.
int BuildPrepared(const Flags& flags, core::PreparedData* prepared) {
  auto trips = data::ReadTripsCsv(flags.GetString("trips", "trips.csv"));
  if (!trips.ok()) return Fail(trips.status());
  auto stations =
      data::ReadStationsCsv(flags.GetString("stations", "stations.csv"));
  if (!stations.ok()) return Fail(stations.status());
  auto start = ParseDate(flags.GetString("start", ""));
  if (!start.ok()) {
    std::cerr << "error: --start YYYY-MM-DD is required\n";
    return 1;
  }
  const int days = static_cast<int>(flags.GetInt("days", 90));

  data::CleaningOptions cleaning;
  cleaning.min_avg_hourly_pickups = flags.GetDouble("min-pickups", 0.0);
  prepared->stations = *stations;
  auto clean = data::CleanTrips(*trips, prepared->stations, cleaning,
                                &prepared->cleaning);
  data::PartitionOptions popts;
  popts.num_regions = static_cast<int>(flags.GetInt("regions", 20));
  popts.seed = flags.GetInt("seed", 7);
  auto partition = data::PartitionStations(prepared->stations, popts);
  if (!partition.ok()) return Fail(partition.status());
  prepared->partition = std::move(partition).value();
  auto series = data::AggregateTrips(clean, prepared->stations,
                                     prepared->partition, *start, days);
  if (!series.ok()) return Fail(series.status());
  data::DatasetOptions dopts;
  dopts.history_length = static_cast<int>(flags.GetInt("L", 5));
  dopts.num_windows = static_cast<int>(flags.GetInt("M", 3));
  dopts.norm_history = dopts.num_windows;
  auto dataset =
      data::SlidingWindowDataset::Create(std::move(series).value(), dopts);
  if (!dataset.ok()) return Fail(dataset.status());
  prepared->dataset = std::move(dataset).value();
  auto split = data::MakeChronoSplit(prepared->dataset);
  if (!split.ok()) return Fail(split.status());
  prepared->split = *split;
  return 0;
}

/// Per-region guard-quarantine summary: the regions whose inputs tripped
/// the guard most, worst first. Quiet fleets print a one-liner instead of
/// an empty table.
void PrintRegionQuarantines(const std::vector<int64_t>& quarantine) {
  std::vector<std::pair<int64_t, int>> worst;
  for (size_t r = 0; r < quarantine.size(); ++r) {
    if (quarantine[r] > 0) {
      worst.emplace_back(quarantine[r], static_cast<int>(r));
    }
  }
  if (worst.empty()) {
    std::cout << "guard quarantines by region: none\n";
    return;
  }
  std::sort(worst.begin(), worst.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const size_t shown = std::min<size_t>(worst.size(), 10);
  TablePrinter table("guard quarantines by region (" +
                         std::to_string(worst.size()) + " regions, top " +
                         std::to_string(shown) + ")",
                     {"region", "quarantined-values"});
  for (size_t i = 0; i < shown; ++i) {
    table.AddRow({std::to_string(worst[i].second),
                  std::to_string(worst[i].first)});
  }
  table.Print(std::cout);
}

void PrintMetrics(const std::string& title, const stats::MetricReport& m) {
  TablePrinter table(title, {"ER", "MSLE", "R2", "RMSE", "MAE"});
  table.AddRow({TablePrinter::Num(m.er), TablePrinter::Num(m.msle),
                TablePrinter::Num(m.r2), TablePrinter::Num(m.rmse),
                TablePrinter::Num(m.mae)});
  table.Print(std::cout);
}

serve::AdaptOptions AdaptOptionsFromFlags(const Flags& flags) {
  serve::AdaptOptions opt;
  opt.cusum_k = flags.GetDouble("adapt-cusum-k", opt.cusum_k);
  opt.cusum_h = flags.GetDouble("adapt-cusum-h", opt.cusum_h);
  opt.window = static_cast<int>(flags.GetInt("adapt-window", opt.window));
  opt.holdout = static_cast<int>(flags.GetInt("adapt-holdout", opt.holdout));
  opt.min_window =
      static_cast<int>(flags.GetInt("adapt-min-window", opt.min_window));
  opt.cooldown = static_cast<int>(flags.GetInt("adapt-cooldown", opt.cooldown));
  opt.micro.steps =
      static_cast<int>(flags.GetInt("adapt-steps", opt.micro.steps));
  opt.micro.learning_rate = static_cast<float>(
      flags.GetDouble("adapt-lr", opt.micro.learning_rate));
  opt.freeze_after =
      static_cast<int>(flags.GetInt("adapt-freeze-after", opt.freeze_after));
  opt.frozen_probe_after = static_cast<int>(
      flags.GetInt("adapt-probe-after", opt.frozen_probe_after));
  opt.shadow_every =
      static_cast<int>(flags.GetInt("adapt-shadow-every", opt.shadow_every));
  return opt;
}

/// Adaptation attribution + the shadow A/B scoreboard. Returns non-zero
/// when the adaptation conservation law is broken (every attempt must be
/// a commit or exactly one kind of rollback).
int PrintAdaptStats(const serve::AdaptStats& s) {
  TablePrinter at("test-time adaptation (" + std::to_string(s.observed) +
                      " observed steps)",
                  {"triggers", "attempts", "commits", "rb-reject", "rb-nan",
                   "rb-error", "freezes", "unfreezes", "frozen"});
  at.AddRow({std::to_string(s.triggers), std::to_string(s.attempts),
             std::to_string(s.commits), std::to_string(s.rollbacks_reject),
             std::to_string(s.rollbacks_nan),
             std::to_string(s.rollbacks_error), std::to_string(s.freezes),
             std::to_string(s.unfreezes), s.frozen ? "yes" : "no"});
  at.Print(std::cout);
  TablePrinter dt("adaptation detail",
                  {"max-cusum", "val-before", "val-after", "shadow-fwd",
                   "shadow-fail"});
  dt.AddRow({TablePrinter::Num(s.max_cusum),
             TablePrinter::Num(s.last_val_before),
             TablePrinter::Num(s.last_val_after),
             std::to_string(s.shadow_forwards),
             std::to_string(s.shadow_failures)});
  dt.Print(std::cout);
  if (s.pairs > 0) {
    TablePrinter ab("adapted vs frozen (shadow A/B, " +
                        std::to_string(s.pairs) + " paired steps)",
                    {"arm", "ER", "MSLE"});
    ab.AddRow({"adapted", TablePrinter::Num(s.AdaptedEr()),
               TablePrinter::Num(s.AdaptedMsle())});
    ab.AddRow({"frozen", TablePrinter::Num(s.FrozenEr()),
               TablePrinter::Num(s.FrozenMsle())});
    ab.Print(std::cout);
    std::cout << "A/B delta (adapted - frozen): ER "
              << TablePrinter::Num(s.AdaptedEr() - s.FrozenEr()) << ", MSLE "
              << TablePrinter::Num(s.AdaptedMsle() - s.FrozenMsle()) << "\n";
  } else {
    std::cout << "shadow A/B: no paired steps scored\n";
  }
  const int64_t bad = s.UnattributedAdaptations();
  if (bad != 0) {
    std::cerr << "error: adaptation attribution broken — " << bad
              << " attempts neither committed nor rolled back\n";
    return 3;
  }
  return 0;
}

int Evaluate(const Flags& flags) {
  core::PreparedData prepared;
  if (int rc = BuildPrepared(flags, &prepared); rc != 0) return rc;

  TrainConfig train;
  train.epochs = static_cast<int>(flags.GetInt("epochs", 20));
  train.learning_rate = static_cast<float>(flags.GetDouble("lr", 2e-3));
  train.seed = flags.GetInt("seed", 7);
  train.checkpoint_path = flags.GetString("train-state", "");
  train.checkpoint_every =
      static_cast<int>(flags.GetInt("checkpoint-every", 1));
  train.resume = flags.GetBool("resume");
  const std::string scheme = flags.GetString("scheme", "EALGAP");
  auto model = core::MakeForecaster(scheme, prepared);
  if (!model.ok()) return Fail(model.status());
  Status fit = (*model)->Fit(prepared.dataset, prepared.split, train);
  if (!fit.ok()) return Fail(fit);
  if (auto* neural = dynamic_cast<NeuralForecaster*>(model->get())) {
    const TrainStats& ts = neural->train_stats();
    if (ts.rollbacks > 0 || ts.resumed_epoch >= 0) {
      std::cout << "training: " << ts.epochs_completed << " epochs";
      if (ts.resumed_epoch >= 0) {
        std::cout << ", resumed at epoch " << ts.resumed_epoch;
      }
      if (ts.rollbacks > 0) {
        std::cout << ", " << ts.rollbacks << " divergence rollbacks ("
                  << ts.skipped_steps << " steps discarded, final lr "
                  << ts.final_lr << ")";
      }
      std::cout << "\n";
    }
  }

  const std::string save_path = flags.GetString("save", "");
  if (!save_path.empty()) {
    auto* neural = dynamic_cast<NeuralForecaster*>(model->get());
    if (neural == nullptr) {
      std::cerr << "error: --save supports neural schemes only, not "
                << scheme << "\n";
      return 1;
    }
    Status saved = neural->SaveCheckpoint(save_path);
    if (!saved.ok()) return Fail(saved);
    std::cout << "checkpoint written to " << save_path << "\n";
  }

  std::vector<double> pred, truth;
  Status ps = (*model)->PredictRange(prepared.dataset,
                                     prepared.split.test_begin,
                                     prepared.split.test_end, &pred, &truth);
  if (!ps.ok()) return Fail(ps);
  PrintMetrics("test metrics (" + scheme + ")",
               stats::ComputeMetrics(pred, truth));

  return 0;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int Experiment(const Flags& flags) {
  core::SweepOptions sweep;
  if (flags.Has("cities")) {
    sweep.cities.clear();
    for (const std::string& name : SplitCsv(flags.GetString("cities"))) {
      bool found = false;
      for (data::City c : data::AllCities()) {
        if (name == data::CityName(c)) {
          sweep.cities.push_back(c);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "error: unknown city '" << name
                  << "' (known: nyc_bike, chicago_bike, nyc_taxi, "
                     "chicago_taxi)\n";
        return 1;
      }
    }
  }
  if (flags.Has("periods")) {
    sweep.periods.clear();
    for (const std::string& name : SplitCsv(flags.GetString("periods"))) {
      bool found = false;
      for (data::Period p : data::AllPeriods()) {
        if (name == data::PeriodName(p)) {
          sweep.periods.push_back(p);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "error: unknown period '" << name
                  << "' (known: normal, weather, holiday)\n";
        return 1;
      }
    }
  }
  if (flags.Has("schemes")) {
    sweep.experiment.schemes = SplitCsv(flags.GetString("schemes"));
  }
  sweep.experiment.seed = flags.GetInt("seed", 7);
  sweep.experiment.data_scale = flags.GetDouble("scale", 1.0);
  sweep.experiment.train.epochs =
      static_cast<int>(flags.GetInt("epochs", 10));
  sweep.experiment.train.learning_rate =
      static_cast<float>(flags.GetDouble("lr", 2e-3));
  sweep.experiment.verbose = flags.GetBool("verbose");
  sweep.journal_path = flags.GetString("journal", "");
  sweep.resume = flags.GetBool("resume");
  sweep.state_dir = flags.GetString("state-dir", "");
  sweep.checkpoint_every =
      static_cast<int>(flags.GetInt("checkpoint-every", 1));
  if (sweep.resume && sweep.journal_path.empty()) {
    std::cerr << "error: --resume requires --journal\n";
    return 1;
  }

  auto result = core::RunSweep(sweep);
  if (!result.ok()) return Fail(result.status());

  TablePrinter table("experiment sweep (" +
                         std::to_string(result->entries.size()) + " cells)",
                     {"city", "period", "scheme", "status", "ER", "MSLE",
                      "R2"});
  for (const core::JournalEntry& e : result->entries) {
    if (e.ok) {
      table.AddRow({e.city, e.period, e.scheme, "ok",
                    TablePrinter::Num(e.metrics.er),
                    TablePrinter::Num(e.metrics.msle),
                    TablePrinter::Num(e.metrics.r2)});
    } else {
      table.AddRow({e.city, e.period, e.scheme, "FAIL", "-", "-", "-"});
    }
  }
  table.Print(std::cout);
  std::cout << "cells: " << result->cells_run << " run, "
            << result->cells_skipped << " resumed from journal, "
            << result->cells_failed << " failed\n";
  for (const core::JournalEntry& e : result->entries) {
    if (!e.ok) {
      std::cout << "  FAIL " << e.city << "/" << e.period << "/" << e.scheme
                << ": " << e.error << "\n";
    }
  }
  // Failed cells make the sweep exit non-zero (they are isolated, not
  // ignored); a resumed sweep that completes cleanly exits 0.
  return result->cells_failed > 0 ? 2 : 0;
}

int Serve(const Flags& flags) {
  const std::string ckpt = flags.GetString("checkpoint", "");
  if (ckpt.empty()) {
    std::cerr << "error: --checkpoint is required\n";
    return 1;
  }
  core::PreparedData prepared;
  if (int rc = BuildPrepared(flags, &prepared); rc != 0) return rc;

  auto model = core::LoadForecasterFromCheckpoint(ckpt);
  if (!model.ok()) return Fail(model.status());

  auto repair = serve::ParseRepairPolicy(flags.GetString("repair", "reject"));
  if (!repair.ok()) return Fail(repair.status());
  serve::StackOptions options;
  options.guard.on_bad_value = *repair;
  options.guard.on_gap = *repair;
  options.resilience.deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  options.resilience.recovery_successes =
      static_cast<int>(flags.GetInt("recovery", 3));
  // --adapt: test-time adaptation between the predictor and the model.
  // The replay loop runs MaybeAdapt after every observe — outside the
  // timed predict path, like the daemon's supervisor phase.
  if (flags.GetBool("adapt")) options.adapt = AdaptOptionsFromFlags(flags);
  auto stack = serve::BuildStack(model->get(), options, prepared.dataset,
                                 prepared.split.test_begin);
  if (!stack.ok()) return Fail(stack.status());

  // Replay the test range as a live feed: predict the next step through
  // the degradation chain, then observe the realized counts.
  const int n = stack->online->num_regions();
  std::vector<double> pred, truth;
  std::vector<double> latency_ms;
  for (int64_t step = prepared.split.test_begin;
       step < prepared.split.test_end; ++step) {
    const auto t0 = std::chrono::steady_clock::now();
    auto row = stack->resilient->PredictNext();
    const auto t1 = std::chrono::steady_clock::now();
    if (!row.ok()) return Fail(row.status());
    latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    const std::vector<float> realized = prepared.dataset.StepCounts(step);
    std::vector<double> observed(realized.begin(), realized.end());
    for (int r = 0; r < n; ++r) {
      pred.push_back(row->values[r]);
      truth.push_back(observed[r]);
    }
    Status obs = stack->resilient->Observe(observed);
    if (!obs.ok()) return Fail(obs);
    if (stack->adaptive != nullptr) {
      auto event = stack->adaptive->MaybeAdapt();
      if (!event.ok()) return Fail(event.status());
    }
  }

  PrintMetrics("replay metrics (" + (*model)->name() + ")",
               stats::ComputeMetrics(pred, truth));

  auto pct = [&](double q) {
    return TablePrinter::Num(stats::Quantile(latency_ms, q));
  };
  TablePrinter lat("per-prediction latency (ms, " +
                       std::to_string(latency_ms.size()) + " steps)",
                   {"mean", "p50", "p95", "p99"});
  lat.AddRow({TablePrinter::Num(stats::Mean(latency_ms)), pct(0.50),
              pct(0.95), pct(0.99)});
  lat.Print(std::cout);

  // Degradation report: how many steps fell back, why, and to what.
  const serve::DegradationState& deg = stack->resilient->degradation();
  TablePrinter dt("degraded steps (" + std::to_string(deg.degraded_steps) +
                      " of " + std::to_string(deg.total_steps) + ")",
                  {"non-finite", "model-error", "deadline", "probation"});
  auto cause_count = [&](serve::DegradeCause c) {
    return std::to_string(deg.by_cause[static_cast<int>(c)]);
  };
  auto level_count = [&](serve::FallbackLevel f) {
    return std::to_string(deg.by_level[static_cast<int>(f)]);
  };
  dt.AddRow({cause_count(serve::DegradeCause::kNonFinite),
             cause_count(serve::DegradeCause::kModelError),
             cause_count(serve::DegradeCause::kDeadline),
             cause_count(serve::DegradeCause::kProbation)});
  dt.Print(std::cout);
  TablePrinter ft("fallback sources served",
                  {"matched-mean", "recent-mean", "persistence"});
  ft.AddRow({level_count(serve::FallbackLevel::kMatchedMean),
             level_count(serve::FallbackLevel::kRecentMean),
             level_count(serve::FallbackLevel::kPersistence)});
  ft.Print(std::cout);
  const serve::GuardStats& gs = stack->online->guard_stats();
  TablePrinter gt("input guards (policy " +
                      std::string(serve::RepairPolicyName(*repair)) +
                      ")",
                  {"repaired-values", "repaired-steps", "gap-steps",
                   "rejected"});
  gt.AddRow({std::to_string(gs.repaired_values),
             std::to_string(gs.repaired_steps),
             std::to_string(gs.gap_steps_filled),
             std::to_string(gs.rejected_observations)});
  gt.Print(std::cout);
  std::vector<int64_t> quarantine(gs.quarantine.begin(), gs.quarantine.end());
  PrintRegionQuarantines(quarantine);
  if (stack->adaptive) return PrintAdaptStats(stack->adaptive->stats());
  return 0;
}

int Daemon(const Flags& flags) {
  const int shards = static_cast<int>(flags.GetInt("shards", 4));
  const int regions_per_shard =
      static_cast<int>(flags.GetInt("regions-per-shard", 8));
  const int days = static_cast<int>(flags.GetInt("days", 30));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 1));
  const int64_t ticks = flags.GetInt("ticks", 256);
  if (shards < 1 || regions_per_shard < 1 || ticks < 1) {
    std::cerr << "error: --shards, --regions-per-shard, --ticks must be >= 1\n";
    return 1;
  }
  if (flags.Has("threads")) {
    SetNumThreads(static_cast<int>(flags.GetInt("threads", 0)));
  }

  // One synthetic city, partitioned into contiguous region slices — each
  // slice gets its own dataset, fitted model, and supervised shard.
  data::RegionSeriesConfig series_config;
  series_config.num_regions = shards * regions_per_shard;
  series_config.num_days = days;
  series_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const data::MobilitySeries city = data::GenerateRegionSeries(series_config);

  serve::DaemonConfig daemon_config;
  daemon_config.batch_max = static_cast<int>(flags.GetInt("batch-max", 64));
  daemon_config.deadline_ticks = flags.GetInt("deadline-ticks", 8);
  daemon_config.ms_per_tick = flags.GetDouble("ms-per-tick", 10.0);
  daemon_config.model_deadline_ms =
      flags.GetDouble("model-deadline-ms", 50.0);
  serve::Daemon daemon(daemon_config);

  // Every shard shares one config but for its name and state dir.
  serve::ShardConfig base_config;
  base_config.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue-capacity", 128));
  base_config.checkpoint_every_steps =
      static_cast<int>(flags.GetInt("checkpoint-every", 16));
  // Steps lost while a shard is quarantined come back as a feed gap on its
  // first post-restart observe; impute-with-generous-window absorbs them
  // instead of rejecting the feed forever.
  base_config.guard.on_bad_value = serve::RepairPolicy::kImpute;
  base_config.guard.on_gap = serve::RepairPolicy::kImpute;
  base_config.guard.max_gap_steps = 4096;
  base_config.resilience.recovery_successes =
      static_cast<int>(flags.GetInt("recovery", 3));
  // --adapt: each shard serves through its own adaptation layer; every
  // restart builds a fresh one over the (reloaded) model.
  if (flags.GetBool("adapt")) base_config.adapt = AdaptOptionsFromFlags(flags);

  const std::string state_dir = flags.GetString("state-dir", "");
  for (int s = 0; s < shards; ++s) {
    auto slice = data::SliceRegions(city, s * regions_per_shard,
                                    (s + 1) * regions_per_shard);
    if (!slice.ok()) return Fail(slice.status());
    data::DatasetOptions dopts;
    dopts.history_length = 5;
    dopts.num_windows = 3;
    dopts.norm_history = 3;
    auto dataset =
        data::SlidingWindowDataset::Create(std::move(slice).value(), dopts);
    if (!dataset.ok()) return Fail(dataset.status());
    auto split = data::MakeChronoSplit(*dataset);
    if (!split.ok()) return Fail(split.status());
    auto model = std::make_unique<core::EalgapForecaster>();
    TrainConfig train;
    train.epochs = epochs;
    train.learning_rate = static_cast<float>(flags.GetDouble("lr", 3e-3));
    train.seed = flags.GetInt("seed", 7) + s;  // per-shard init streams
    Status fit = model->Fit(*dataset, *split, train);
    if (!fit.ok()) return Fail(fit);

    serve::ShardConfig shard_config = base_config;
    shard_config.name = "shard" + std::to_string(s);
    if (!state_dir.empty()) {
      shard_config.state_dir = state_dir + "/" + shard_config.name;
    }
    auto shard = serve::Shard::Create(std::move(*dataset), std::move(model),
                                      split->test_begin, shard_config,
                                      core::LoadForecasterFromCheckpoint);
    if (!shard.ok()) return Fail(shard.status());
    daemon.AddShard(std::move(shard).value());
  }

  serve::LoadGenConfig load_config;
  load_config.num_shards = shards;
  load_config.seed = static_cast<uint64_t>(flags.GetInt("load-seed", 17));
  serve::LoadPhase steady;
  steady.ticks = flags.GetInt("steady-ticks", 48);
  steady.predict_rate = flags.GetDouble("steady-rate", 2.0);
  serve::LoadPhase burst;
  burst.ticks = flags.GetInt("burst-ticks", 16);
  burst.predict_rate = flags.GetDouble("burst-rate", 24.0);
  load_config.phases = {steady, burst};
  serve::LoadGen load(load_config);

  std::cout << "daemon soak: " << shards << " shards x "
            << regions_per_shard << " regions, " << ticks
            << " ticks, load seed " << load_config.seed << "\n";
  const serve::SloReport report = daemon.Run(&load, ticks);

  TablePrinter slo("SLO (" + std::to_string(report.ticks) + " ticks, " +
                       TablePrinter::Num(report.wall_seconds) + " s)",
                   {"answers/s", "mean-ms", "p50-ms", "p95-ms", "p99-ms"});
  slo.AddRow({TablePrinter::Num(report.throughput_rps),
              TablePrinter::Num(report.mean_ms),
              TablePrinter::Num(report.p50_ms),
              TablePrinter::Num(report.p95_ms),
              TablePrinter::Num(report.p99_ms)});
  slo.Print(std::cout);

  TablePrinter pt("predict attribution (" +
                      std::to_string(report.predict_requests) + " requests)",
                  {"model", "degraded", "expired", "shed-overload",
                   "shed-quarantine", "queued"});
  pt.AddRow({std::to_string(report.served_model),
             std::to_string(report.served_degraded),
             std::to_string(report.expired_fallback),
             std::to_string(report.shed_overload_predict),
             std::to_string(report.shed_quarantine_predict),
             std::to_string(report.queued_predict)});
  pt.Print(std::cout);

  TablePrinter ot("observe attribution (" +
                      std::to_string(report.observe_requests) + " requests)",
                  {"applied", "guard-rejected", "shed-overload",
                   "shed-quarantine", "queued"});
  ot.AddRow({std::to_string(report.observes_applied),
             std::to_string(report.observes_guard_rejected),
             std::to_string(report.shed_overload_observe),
             std::to_string(report.shed_quarantine_observe),
             std::to_string(report.queued_observe)});
  ot.Print(std::cout);

  TablePrinter dt("degraded answers by cause (" +
                      std::to_string(report.served_degraded) + " of " +
                      std::to_string(report.served_model +
                                     report.served_degraded) +
                      " served)",
                  {"non-finite", "model-error", "deadline", "probation"});
  auto cause = [&](serve::DegradeCause c) {
    return std::to_string(report.degraded_by_cause[static_cast<int>(c)]);
  };
  dt.AddRow({cause(serve::DegradeCause::kNonFinite),
             cause(serve::DegradeCause::kModelError),
             cause(serve::DegradeCause::kDeadline),
             cause(serve::DegradeCause::kProbation)});
  dt.Print(std::cout);

  TablePrinter st("supervisor",
                  {"crashes", "stall-ticks", "quarantines", "restarts",
                   "from-ckpt", "ckpts", "ckpt-fail"});
  st.AddRow({std::to_string(report.crashes_injected),
             std::to_string(report.stall_ticks_injected),
             std::to_string(report.watchdog_quarantines),
             std::to_string(report.restarts),
             std::to_string(report.restarts_from_checkpoint),
             std::to_string(report.checkpoints_written),
             std::to_string(report.checkpoint_failures)});
  st.Print(std::cout);

  TablePrinter ht("shards", {"name", "health", "quarantines", "restarts",
                             "observes", "degraded"});
  std::vector<int64_t> fleet_quarantine;
  for (int s = 0; s < daemon.num_shards(); ++s) {
    serve::Shard* sh = daemon.shard(s);
    const serve::ShardTotals t = sh->Totals();
    ht.AddRow({sh->name(), serve::ShardHealthName(sh->health()),
               std::to_string(t.quarantines), std::to_string(t.restarts),
               std::to_string(t.observes_applied),
               std::to_string(t.degradation.degraded_steps)});
    // Shard-local region q maps to city region s * regions_per_shard + q.
    for (size_t r = 0; r < t.guard.quarantine.size(); ++r) {
      const size_t global =
          static_cast<size_t>(s) * static_cast<size_t>(regions_per_shard) + r;
      if (fleet_quarantine.size() <= global) {
        fleet_quarantine.resize(global + 1, 0);
      }
      fleet_quarantine[global] += t.guard.quarantine[r];
    }
  }
  ht.Print(std::cout);
  PrintRegionQuarantines(fleet_quarantine);

  int adapt_rc = 0;
  if (base_config.adapt) adapt_rc = PrintAdaptStats(report.adapt);

  std::cout << "replay digest: " << Crc32Hex(daemon.digest()) << "\n";
  const int64_t bad_predicts = report.UnattributedPredicts();
  const int64_t bad_observes = report.UnattributedObserves();
  const int64_t bad_causes = report.DegradedCauseMismatch();
  if (bad_predicts != 0 || bad_observes != 0 || bad_causes != 0) {
    std::cerr << "error: attribution broken — " << bad_predicts
              << " predicts, " << bad_observes << " observes unattributed, "
              << bad_causes << " degraded-cause mismatch\n";
    return 3;
  }
  if (adapt_rc != 0) return adapt_rc;
  std::cout << "attribution: every request accounted for\n";
  return 0;
}

/// Every flag BuildPrepared reads (evaluate and serve share it).
const std::vector<std::string> kPipelineFlags = {
    "trips", "stations", "start", "days", "min-pickups", "regions", "seed",
    "L", "M"};
/// --adapt plus every knob AdaptOptionsFromFlags reads (serve and daemon).
const std::vector<std::string> kAdaptFlags = {
    "adapt", "adapt-cusum-k", "adapt-cusum-h", "adapt-window",
    "adapt-holdout", "adapt-min-window", "adapt-cooldown", "adapt-steps",
    "adapt-lr", "adapt-freeze-after", "adapt-probe-after",
    "adapt-shadow-every"};

std::vector<std::string> Concat(
    std::initializer_list<std::vector<std::string>> lists) {
  std::vector<std::string> out;
  for (const auto& list : lists) {
    out.insert(out.end(), list.begin(), list.end());
  }
  return out;
}

/// One subcommand and the flags it accepts: exactly the names its body
/// reads. main() rejects any other flag, so a stale script fails loudly
/// instead of running with the flag silently ignored.
struct Subcommand {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string> flags;
};

const Subcommand kSubcommands[] = {
    {"generate", Generate,
     {"city", "period", "seed", "scale", "out-trips", "out-stations"}},
    {"inspect", Inspect, {"trips", "stations"}},
    {"evaluate", Evaluate,
     Concat({kPipelineFlags,
             {"scheme", "epochs", "lr", "save", "train-state",
              "checkpoint-every", "resume"}})},
    {"experiment", Experiment,
     {"cities", "periods", "schemes", "seed", "scale", "epochs", "lr",
      "verbose", "journal", "resume", "state-dir", "checkpoint-every"}},
    {"serve", Serve,
     Concat({kPipelineFlags, kAdaptFlags,
             {"checkpoint", "repair", "deadline-ms", "recovery"}})},
    {"daemon", Daemon,
     Concat({kAdaptFlags,
             {"shards", "regions-per-shard", "days", "epochs", "lr", "ticks",
              "seed", "threads", "state-dir", "queue-capacity", "batch-max",
              "deadline-ticks", "ms-per-tick", "model-deadline-ms",
              "checkpoint-every", "recovery", "steady-rate", "steady-ticks",
              "burst-rate", "burst-ticks", "load-seed"}})},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: ealgap_tool "
                 "<generate|inspect|evaluate|experiment|serve|daemon> "
                 "[flags]\n";
    return 1;
  }
  const std::string cmd = argv[1];
  const ealgap::Flags flags(argc - 1, argv + 1);
  for (const Subcommand& sub : kSubcommands) {
    if (cmd != sub.name) continue;
    const std::vector<std::string> unknown = flags.Unknown(sub.flags);
    if (!unknown.empty()) {
      std::cerr << "error: " << cmd << " does not accept";
      for (const std::string& name : unknown) std::cerr << " --" << name;
      std::cerr << "\n";
      return 2;
    }
    return sub.run(flags);
  }
  std::cerr << "unknown subcommand: " << cmd << "\n";
  return 1;
}
