// Tests for the util support modules: bytes, histogram, cli, csv, table,
// vec3, log.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fastmath.hpp"
#include "util/histogram.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

namespace phodis::util {
namespace {

// ---------- fastmath --------------------------------------------------------

// fast_radius trades std::hypot's overflow rescaling for a plain sqrt; the
// kernel only feeds it photon coordinates in millimetres, so this pins the
// accuracy over the physically reachable range (sub-µm to metres). Three
// roundings instead of one correctly-rounded op bounds the relative error
// by ~2 ulp; 1e-14 leaves a comfortable margin.
TEST(FastMath, FastRadiusMatchesHypotOverPhysicalRange) {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  const auto next_coord = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double mantissa =
        static_cast<double>(state >> 11) * 0x1.0p-53;  // [0, 1)
    const int exponent = static_cast<int>(state % 21) - 10;  // 1e-10..1e10 mm
    return (mantissa + 0.5) * std::pow(10.0, exponent) *
           (state & 1 ? 1.0 : -1.0);
  };
  for (int i = 0; i < 100000; ++i) {
    const double x = next_coord();
    const double y = next_coord();
    const double reference = std::hypot(x, y);
    const double fast = fast_radius(x, y);
    ASSERT_NEAR(fast, reference, reference * 1e-14)
        << "x=" << x << " y=" << y;
  }
  // Exact cases stay exact.
  EXPECT_EQ(fast_radius(0.0, 0.0), 0.0);
  EXPECT_EQ(fast_radius(3.0, 4.0), 5.0);
  EXPECT_EQ(fast_radius(-3.0, 4.0), 5.0);
}

// ---------- bytes -----------------------------------------------------------

TEST(Bytes, RoundTripAllScalarTypes) {
  ByteWriter w;
  w.u8(250);
  w.u32(123456789u);
  w.u64(0xDEADBEEFCAFEBABEULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 250);
  EXPECT_EQ(r.u32(), 123456789u);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, RoundTripStringsAndVectors) {
  ByteWriter w;
  w.str("hello world");
  w.str("");
  w.f64_vec({1.0, -2.5, 1e300});
  w.f64_vec({});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.0, -2.5, 1e300}));
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, SpecialDoublesRoundTrip) {
  ByteWriter w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_EQ(r.f64(), 0.0);
}

TEST(Bytes, TruncatedBufferThrows) {
  ByteWriter w;
  w.u64(1);
  std::vector<std::uint8_t> buf = w.bytes();
  buf.pop_back();
  ByteReader r(buf);
  EXPECT_THROW(r.u64(), std::out_of_range);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.str("abcdef");
  std::vector<std::uint8_t> buf = w.bytes();
  buf.resize(buf.size() - 3);
  ByteReader r(buf);
  EXPECT_THROW(r.str(), std::out_of_range);
}

TEST(Bytes, OversizedVectorLengthThrows) {
  ByteWriter w;
  w.u64(~0ULL);  // claims 2^64-1 doubles follow
  ByteReader r(w.bytes());
  EXPECT_THROW(r.f64_vec(), std::out_of_range);
}

// Regression: a length crafted so len * sizeof(double) wraps to a small
// value (0x2000000000000001 * 8 == 8 mod 2^64). The old multiply-based
// bounds check passed it, leaving a ~2^64-element allocation attempt to
// blow up downstream; the divide-based check must reject it up front.
TEST(Bytes, WrappingVectorLengthThrows) {
  ByteWriter w;
  w.u64(0x2000000000000001ULL);
  w.f64(1.0);  // 8 real bytes, matching the wrapped product
  ByteReader r(w.bytes());
  EXPECT_THROW(r.f64_vec(), std::out_of_range);
}

TEST(Bytes, StoreLoadU32LittleEndianByConstruction) {
  std::uint8_t buf[4];
  store_u32_le(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[1], 0x03);
  EXPECT_EQ(buf[2], 0x02);
  EXPECT_EQ(buf[3], 0x01);
  EXPECT_EQ(load_u32_le(buf), 0x01020304u);
  store_u32_le(buf, 0xFFFFFFFFu);
  EXPECT_EQ(load_u32_le(buf), 0xFFFFFFFFu);
  store_u32_le(buf, 0u);
  EXPECT_EQ(load_u32_le(buf), 0u);
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

// ---------- histogram --------------------------------------------------------

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 1.0);
  EXPECT_DOUBLE_EQ(h.total_in_range(), 3.0);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1, 2.0);
  h.add(1.0, 3.0);  // hi edge is exclusive
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 4.0);
  EXPECT_DOUBLE_EQ(h.total(), 6.0);
  EXPECT_DOUBLE_EQ(h.total_in_range(), 0.0);
}

TEST(Histogram, WeightedMeanAndStddevAreExact) {
  Histogram h(0.0, 100.0, 1000);
  h.add(10.0, 1.0);
  h.add(20.0, 3.0);
  // mean = (10 + 60) / 4 = 17.5
  EXPECT_DOUBLE_EQ(h.mean(), 17.5);
  const double var = (1.0 * 10 * 10 + 3.0 * 20 * 20) / 4.0 - 17.5 * 17.5;
  EXPECT_NEAR(h.stddev(), std::sqrt(var), 1e-12);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(0.05 + 0.0999 * i * 1.0);
  const double median = h.quantile(0.5);
  EXPECT_GT(median, 3.5);
  EXPECT_LT(median, 6.5);
  EXPECT_LE(h.quantile(0.0), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(1.0));
}

TEST(Histogram, ModeFindsFullestBin) {
  Histogram h(0.0, 3.0, 3);
  h.add(0.5);
  h.add(1.5, 5.0);
  h.add(2.5);
  EXPECT_DOUBLE_EQ(h.mode(), 1.5);
}

TEST(Histogram, MergeAccumulates) {
  Histogram a(0.0, 1.0, 10);
  Histogram b(0.0, 1.0, 10);
  a.add(0.25);
  b.add(0.25, 2.0);
  b.add(-1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.count(2), 3.0);
  EXPECT_DOUBLE_EQ(a.underflow(), 1.0);
}

TEST(Histogram, MergeRejectsMismatchedBinning) {
  Histogram a(0.0, 1.0, 10);
  Histogram b(0.0, 1.0, 20);
  Histogram c(0.0, 2.0, 10);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, SerializeRoundTrip) {
  Histogram h(0.0, 50.0, 25);
  h.add(1.0, 0.5);
  h.add(20.0, 2.0);
  h.add(-4.0);
  h.add(60.0);
  ByteWriter w;
  h.serialize(w);
  ByteReader r(w.bytes());
  Histogram back = Histogram::deserialize(r);
  EXPECT_EQ(back.bin_count(), h.bin_count());
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    EXPECT_DOUBLE_EQ(back.count(i), h.count(i));
  }
  EXPECT_DOUBLE_EQ(back.mean(), h.mean());
  EXPECT_DOUBLE_EQ(back.underflow(), h.underflow());
  EXPECT_DOUBLE_EQ(back.overflow(), h.overflow());
}

TEST(Histogram, BinEdgesAreConsistent) {
  Histogram h(2.0, 12.0, 5);
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    EXPECT_DOUBLE_EQ(h.bin_hi(i) - h.bin_lo(i), 2.0);
    EXPECT_DOUBLE_EQ(h.bin_center(i), h.bin_lo(i) + 1.0);
  }
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 12.0);
}

// ---------- cli --------------------------------------------------------------

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=hello", "pos1",
                        "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get("beta", ""), "hello");
  EXPECT_TRUE(args.get_flag("flag"));
  EXPECT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, OptionGreedilyConsumesNextToken) {
  // Documented ambiguity: `--key token` binds token as the value, so a
  // bare flag before a positional must use `--flag=true` instead.
  const char* argv[] = {"prog", "--flag", "pos"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get("flag", ""), "pos");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.get_flag("missing"));
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, NumbersParseWholeOrThrowNamingTheFlag) {
  // "2e5" is a partial integer ("2"), "12x" a partial number: both used to
  // parse silently, and "abc" used to fall back to the default.
  for (const char* value : {"abc", "2e5", "12x", "1.5.2"}) {
    const char* argv[] = {"prog", "--photons", value};
    CliArgs args(3, argv);
    EXPECT_THROW(
        {
          try {
            args.get_int("photons", 9);
          } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find("--photons"),
                      std::string::npos);
            throw;
          }
        },
        std::invalid_argument)
        << value;
  }
  for (const char* value : {"abc", "12x", "1.5.2", "2s"}) {
    const char* argv[] = {"prog", "--lease", value};
    CliArgs args(3, argv);
    EXPECT_THROW(args.get_double("lease", 1.5), std::invalid_argument)
        << value;
  }
  const char* argv[] = {"prog", "--n", "-3", "--x", "2.75", "--y=-1e3",
                        "--z", "2e5"};
  CliArgs args(8, argv);
  EXPECT_EQ(args.get_int("n", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("n", 0), -3.0);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0), 2.75);
  EXPECT_DOUBLE_EQ(args.get_double("y", 0), -1000.0);
  EXPECT_DOUBLE_EQ(args.get_double("z", 0), 2e5);
}

TEST(Cli, ExplicitFalseFlagValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  CliArgs args(5, argv);
  EXPECT_FALSE(args.get_flag("a"));
  EXPECT_FALSE(args.get_flag("b"));
  EXPECT_FALSE(args.get_flag("c"));
  EXPECT_TRUE(args.get_flag("d"));
}

TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--x", "2.75", "--y=-1e3"};
  CliArgs args(4, argv);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0), 2.75);
  EXPECT_DOUBLE_EQ(args.get_double("y", 0), -1000.0);
}

TEST(Cli, CountsParseWholeNonNegativeIntegers) {
  const char* argv[] = {"prog", "--photons", "200000", "--chunk=0",
                        "--big", "18446744073709551615"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_count("photons", 1), 200'000u);
  EXPECT_EQ(args.get_count("chunk", 1), 0u);
  EXPECT_EQ(args.get_count("big", 0), 18'446'744'073'709'551'615u);
  EXPECT_EQ(args.get_count("missing", 7), 7u);
}

TEST(Cli, CountsRejectNegativePartialAndNonNumbers) {
  for (const char* value :
       {"-1", "2e5", "12abc", "abc", "", " 5", "+5", "1.5",
        "18446744073709551616"}) {
    const std::string arg = std::string("--photons=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    CliArgs args(2, argv);
    try {
      args.get_count("photons", 1);
      ADD_FAILURE() << "accepted \"" << value << "\"";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("--photons"),
                std::string::npos)
          << error.what();
    }
  }
  // A bare flag has no number either.
  const char* argv[] = {"prog", "--threads"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_count("threads", 0), std::invalid_argument);
}

TEST(Cli, RunMainPassesTheExitOnAndTurnsAnErrorIntoOneLine) {
  std::vector<std::string> lines;
  set_log_sink([&lines](LogLevel, const std::string& message) {
    lines.push_back(message);
  });
  const auto photons_as_exit = [](const CliArgs& args) {
    return static_cast<int>(args.get_count("photons", 0));
  };
  char program[] = "build/bench/bench_demo";
  char flag[] = "--photons";
  char good[] = "7";
  char bad[] = "-1";
  char* good_argv[] = {program, flag, good};
  char* bad_argv[] = {program, flag, bad};
  EXPECT_EQ(run_main(3, good_argv, photons_as_exit), 7);
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(run_main(3, bad_argv, photons_as_exit), 1);
  set_log_sink({});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "bench_demo: --photons takes a non-negative integer, not \"-1\"");
}

// ---------- csv --------------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/phodis_test_csv1.csv";
  {
    CsvWriter csv(path);
    csv.header({"a", "b"});
    csv.row({"1", "2"});
    csv.row({1.5, 2.5});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
  std::remove(path.c_str());
}

TEST(Csv, EnforcesProtocol) {
  const std::string path = "/tmp/phodis_test_csv2.csv";
  CsvWriter csv(path);
  EXPECT_THROW(csv.row({"no header yet"}), std::logic_error);
  csv.header({"x"});
  EXPECT_THROW(csv.header({"again"}), std::logic_error);
  EXPECT_THROW(csv.row({"1", "2"}), std::logic_error);
  std::remove(path.c_str());
}

TEST(Csv, EscapesSpecialCells) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, FormatDoubleTrimsNoise) {
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(1e9, 3), "1e+09");
}

TEST(Csv, OpenFailureThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"),
               std::runtime_error);
}

// ---------- table ------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, PadsShortRowsRejectsLong) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only one"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_THROW(t.add_row({"1", "2", "3", "4"}), std::logic_error);
}

TEST(Table, NumericRows) {
  TextTable t({"x", "y"});
  t.add_row_numeric({1.5, 2.25});
  EXPECT_NE(t.to_string().find("2.25"), std::string::npos);
}

// ---------- vec3 -------------------------------------------------------------

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(2.0 * a, (Vec3{2, 4, 6}));
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
}

TEST(Vec3, DotCrossNorm) {
  const Vec3 x{1, 0, 0};
  const Vec3 y{0, 1, 0};
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
  EXPECT_EQ(x.cross(y), (Vec3{0, 0, 1}));
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm2(), 25.0);
}

TEST(Vec3, NormalizedHandlesZero) {
  EXPECT_NEAR((Vec3{10, 0, 0}).normalized().norm(), 1.0, 1e-15);
  // Zero vector normalizes to the +z convention rather than NaN.
  EXPECT_EQ((Vec3{0, 0, 0}).normalized(), (Vec3{0, 0, 1}));
}

TEST(Vec3, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0, 0}, {0, 3, 4}), 5.0);
}

// ---------- log --------------------------------------------------------------

TEST(Log, ParseLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("Error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
}

TEST(Log, LevelIsGlobalAndRestorable) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

}  // namespace
}  // namespace phodis::util
