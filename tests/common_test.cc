#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/flags.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/time_util.h"

namespace ealgap {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status Caller(int x) {
  EALGAP_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Caller(1).ok());
  EXPECT_EQ(Caller(-1).code(), StatusCode::kOutOfRange);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> bad = ParsePositive(0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(42), 42);
}

Result<int> Doubled(int x) {
  EALGAP_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturn) {
  EXPECT_EQ(*Doubled(3), 6);
  EXPECT_FALSE(Doubled(-3).ok());
}

TEST(ResultTest, OkStatusConvertsToInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIntUnbiasedCoverage) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

class RngMomentsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngMomentsTest, NormalMoments) {
  Rng rng(GetParam());
  double sum = 0, ss = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    ss += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(ss / n, 1.0, 0.1);
}

TEST_P(RngMomentsTest, ExponentialMean) {
  Rng rng(GetParam());
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST_P(RngMomentsTest, PoissonMeanSmallAndLarge) {
  Rng rng(GetParam());
  for (double mean : {0.5, 4.0, 80.0}) {
    double sum = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) sum += rng.Poisson(mean);
    EXPECT_NEAR(sum / n, mean, 0.15 * mean + 0.15) << "mean " << mean;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngMomentsTest,
                         ::testing::Values(1, 42, 31337, 99999));

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- CSV --------------------------------------------------------------------

TEST(CsvTest, SplitsSimpleLine) {
  EXPECT_EQ(SplitCsvLine("a,b,c"), (CsvRow{"a", "b", "c"}));
}

TEST(CsvTest, HandlesQuotedFields) {
  EXPECT_EQ(SplitCsvLine("a,\"b,c\",d"), (CsvRow{"a", "b,c", "d"}));
  EXPECT_EQ(SplitCsvLine("\"he said \"\"hi\"\"\",x"),
            (CsvRow{"he said \"hi\"", "x"}));
}

TEST(CsvTest, JoinEscapesSpecials) {
  const CsvRow row{"plain", "with,comma", "with\"quote"};
  EXPECT_EQ(SplitCsvLine(JoinCsvLine(row)), row);
}

TEST(CsvTest, ParseWithHeaderAndColumnLookup) {
  auto table = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->ColumnIndex("b"), 1);
  EXPECT_EQ(table->ColumnIndex("zz"), -1);
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][0], "3");
}

TEST(CsvTest, RaggedRowsRejected) {
  auto table = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(ParseCsv("a,b\n1\n", true, /*allow_ragged=*/true).ok());
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable table;
  table.header = {"x", "y"};
  table.rows = {{"1", "hello, world"}, {"2", "line\"quote"}};
  const std::string path = ::testing::TempDir() + "/csv_roundtrip.csv";
  ASSERT_TRUE(WriteCsvFile(path, table).ok());
  auto read = ReadCsvFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->header, table.header);
  EXPECT_EQ(read->rows, table.rows);
}

TEST(CsvTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/x.csv").status().code(),
            StatusCode::kIoError);
}

// --- Flags ------------------------------------------------------------------

TEST(FlagsTest, ParsesAllForms) {
  // Note: a bare boolean flag followed by a positional would consume it as
  // a value ("--name value" form), so the boolean goes last.
  const char* argv[] = {"prog", "--alpha=1.5", "--n", "12", "positional",
                        "--verbose"};
  Flags flags(6, argv);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0), 1.5);
  EXPECT_EQ(flags.GetInt("n", 0), 12);
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_FALSE(flags.GetBool("quiet"));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, MalformedNumberFallsBack) {
  const char* argv[] = {"prog", "--n=abc"};
  Flags flags(2, argv);
  EXPECT_EQ(flags.GetInt("n", 3), 3);
}

TEST(FlagsTest, UnknownNamesEveryFlagOutsideTheAcceptedSet) {
  const char* argv[] = {"prog", "--quant", "--n=3", "positional", "--zeta",
                        "1"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.Unknown({"n"}), (std::vector<std::string>{"quant", "zeta"}));
  EXPECT_TRUE(flags.Unknown({"n", "quant", "zeta"}).empty());
  // Positionals are not flags: a flag-free command line has nothing unknown.
  const char* bare[] = {"prog", "positional"};
  EXPECT_TRUE(Flags(2, bare).Unknown({}).empty());
}

// --- Time -------------------------------------------------------------------

TEST(TimeTest, KnownDaysOfWeek) {
  EXPECT_EQ(DayOfWeek({1970, 1, 1}), 4);   // Thursday
  EXPECT_EQ(DayOfWeek({2020, 8, 4}), 2);   // Hurricane Isaias: Tuesday
  EXPECT_EQ(DayOfWeek({2020, 12, 25}), 5); // Christmas 2020: Friday
  EXPECT_EQ(DayOfWeek({2016, 5, 30}), 1);  // Memorial Day 2016: Monday
}

TEST(TimeTest, LeapYears) {
  EXPECT_TRUE(IsLeapYear(2020));
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(2021));
  EXPECT_EQ(DaysInMonth(2020, 2), 29);
  EXPECT_EQ(DaysInMonth(2021, 2), 28);
}

class DateRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DateRoundTripTest, DaysSinceEpochRoundTrips) {
  const int64_t days = GetParam();
  const CivilDate d = DateFromDaysSinceEpoch(days);
  EXPECT_EQ(DaysSinceEpoch(d), days);
}

INSTANTIATE_TEST_SUITE_P(Days, DateRoundTripTest,
                         ::testing::Values(0, 1, 365, 18262, 20000, -400,
                                           11016, 18993));

TEST(TimeTest, TimestampParseFormatRoundTrip) {
  const std::string ts = "2020-08-04 17:30:05";
  auto parsed = ParseTimestamp(ts);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(FormatTimestamp(*parsed), ts);
  EXPECT_EQ(FromUnixSeconds(ToUnixSeconds(*parsed)), *parsed);
}

TEST(TimeTest, RejectsMalformedTimestamps) {
  EXPECT_FALSE(ParseTimestamp("garbage").ok());
  EXPECT_FALSE(ParseTimestamp("2020-13-01 00:00:00").ok());
  EXPECT_FALSE(ParseTimestamp("2020-02-30 00:00:00").ok());
  EXPECT_FALSE(ParseTimestamp("2020-02-01 25:00:00").ok());
  EXPECT_FALSE(ParseDate("2021-02-29").ok());
}

TEST(TimeTest, AddDaysCrossesMonthsAndYears) {
  EXPECT_EQ(AddDays({2020, 12, 30}, 3), (CivilDate{2021, 1, 2}));
  EXPECT_EQ(AddDays({2020, 3, 1}, -1), (CivilDate{2020, 2, 29}));
}

TEST(TimeTest, WeekendDetection) {
  EXPECT_TRUE(IsWeekend({2020, 8, 1}));    // Saturday
  EXPECT_TRUE(IsWeekend({2020, 8, 2}));    // Sunday
  EXPECT_FALSE(IsWeekend({2020, 8, 4}));   // Tuesday
}

// --- TablePrinter -----------------------------------------------------------

TEST(TablePrinterTest, AlignsAndPads) {
  TablePrinter t("title", {"a", "long_column"});
  t.AddRow({"x"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("long_column"), std::string::npos);
  EXPECT_NE(out.find('x'), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t("", {"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(0.25649, 3), "0.256");
  EXPECT_EQ(TablePrinter::Num(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace ealgap
