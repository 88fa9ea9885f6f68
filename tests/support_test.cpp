//===- tests/support_test.cpp - Unit tests for src/support ---------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/AsciiChart.h"
#include "support/MathUtils.h"
#include "support/OptionParser.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

using namespace pcb;

namespace {

TEST(MathUtils, PowersOfTwo) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_TRUE(isPowerOfTwo(uint64_t(1) << 40));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_FALSE(isPowerOfTwo(6));
  EXPECT_FALSE(isPowerOfTwo(uint64_t(1) << 40 | 1));
}

TEST(MathUtils, Pow2) {
  EXPECT_EQ(pow2(0), 1u);
  EXPECT_EQ(pow2(10), 1024u);
  EXPECT_EQ(pow2(63), uint64_t(1) << 63);
}

TEST(MathUtils, Log2Floor) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(2), 1u);
  EXPECT_EQ(log2Floor(3), 1u);
  EXPECT_EQ(log2Floor(4), 2u);
  EXPECT_EQ(log2Floor(1023), 9u);
  EXPECT_EQ(log2Floor(1024), 10u);
}

TEST(MathUtils, Log2Ceil) {
  EXPECT_EQ(log2Ceil(1), 0u);
  EXPECT_EQ(log2Ceil(2), 1u);
  EXPECT_EQ(log2Ceil(3), 2u);
  EXPECT_EQ(log2Ceil(4), 2u);
  EXPECT_EQ(log2Ceil(5), 3u);
  EXPECT_EQ(log2Ceil(1025), 11u);
}

TEST(MathUtils, Alignment) {
  EXPECT_EQ(alignUp(0, 8), 0u);
  EXPECT_EQ(alignUp(1, 8), 8u);
  EXPECT_EQ(alignUp(8, 8), 8u);
  EXPECT_EQ(alignUp(9, 8), 16u);
  EXPECT_EQ(alignDown(7, 8), 0u);
  EXPECT_EQ(alignDown(8, 8), 8u);
  EXPECT_EQ(alignDown(15, 8), 8u);
}

TEST(MathUtils, NextPowerOfTwo) {
  EXPECT_EQ(nextPowerOfTwo(0), 1u);
  EXPECT_EQ(nextPowerOfTwo(1), 1u);
  EXPECT_EQ(nextPowerOfTwo(3), 4u);
  EXPECT_EQ(nextPowerOfTwo(4), 4u);
  EXPECT_EQ(nextPowerOfTwo(5), 8u);
}

TEST(MathUtils, CeilDivAndSatSub) {
  EXPECT_EQ(ceilDiv(0, 4), 0u);
  EXPECT_EQ(ceilDiv(1, 4), 1u);
  EXPECT_EQ(ceilDiv(4, 4), 1u);
  EXPECT_EQ(ceilDiv(5, 4), 2u);
  EXPECT_EQ(satSub(5, 3), 2u);
  EXPECT_EQ(satSub(3, 5), 0u);
}

TEST(Random, Determinism) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Random, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    uint64_t V = R.nextInRange(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, RoughUniformity) {
  Rng R(11);
  std::map<uint64_t, int> Counts;
  const int Draws = 80000;
  for (int I = 0; I != Draws; ++I)
    ++Counts[R.nextBelow(8)];
  for (uint64_t V = 0; V != 8; ++V) {
    EXPECT_GT(Counts[V], Draws / 8 - Draws / 40);
    EXPECT_LT(Counts[V], Draws / 8 + Draws / 40);
  }
}

TEST(Table, AlignedOutput) {
  Table T({"a", "bb"});
  T.beginRow();
  T.addCell(uint64_t(7));
  T.addCell(std::string("x"));
  std::ostringstream OS;
  T.printAligned(OS);
  EXPECT_EQ(OS.str(), "a  bb\n"
                      "-  --\n"
                      "7   x\n");
}

TEST(Table, CsvEscaping) {
  Table T({"name"});
  T.beginRow();
  T.addCell(std::string("a,b\"c"));
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "name\n\"a,b\"\"c\"\n");
}

TEST(Table, DoubleFormatting) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(Table, FormatWords) {
  EXPECT_EQ(formatWords(0), "0");
  EXPECT_EQ(formatWords(512), "512");
  EXPECT_EQ(formatWords(1024), "1K");
  EXPECT_EQ(formatWords(uint64_t(256) << 20), "256M");
  EXPECT_EQ(formatWords(uint64_t(1) << 30), "1G");
  EXPECT_EQ(formatWords(1536), "1536"); // not a whole number of KiB
}

TEST(AsciiChart, RendersSeriesGlyphsAndLegend) {
  AsciiChart::Options Opts;
  Opts.Width = 16;
  Opts.Height = 5;
  Opts.YMin = 0.0;
  Opts.YMax = 4.0;
  AsciiChart Chart(0.0, 10.0, Opts);
  Chart.addSeries(ChartSeries{"rising", '#', {0.0, 1.0, 2.0, 3.0, 4.0}});
  Chart.addSeries(ChartSeries{"flat", '.', {2.0, 2.0, 2.0, 2.0, 2.0}});
  std::ostringstream OS;
  Chart.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find('#'), std::string::npos);
  EXPECT_NE(Out.find('.'), std::string::npos);
  EXPECT_NE(Out.find("# = rising"), std::string::npos);
  EXPECT_NE(Out.find(". = flat"), std::string::npos);
  // The top Y label is the requested maximum, the bottom the minimum.
  EXPECT_NE(Out.find("4.00 |"), std::string::npos);
  EXPECT_NE(Out.find("0.00 |"), std::string::npos);
  // The rising series reaches the top-right region; the flat series sits
  // on its own row throughout.
  size_t TopRow = Out.find("4.00 |");
  size_t TopRowEnd = Out.find('\n', TopRow);
  EXPECT_NE(Out.substr(TopRow, TopRowEnd - TopRow).find('#'),
            std::string::npos);
}

TEST(AsciiChart, AutoScalesAndSkipsNaN) {
  AsciiChart Chart(0.0, 1.0);
  double NaN = std::nan("");
  Chart.addSeries(ChartSeries{"partial", '*', {NaN, 5.0, 7.0, NaN}});
  std::ostringstream OS;
  Chart.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find('*'), std::string::npos);
  // Auto-scale must cover [5, 7] with padding.
  EXPECT_NE(Out.find("|"), std::string::npos);
}

TEST(AsciiChart, EmptySeriesDoesNotCrash) {
  AsciiChart Chart(0.0, 1.0);
  Chart.addSeries(ChartSeries{"empty", '#', {}});
  std::ostringstream OS;
  Chart.print(OS);
  EXPECT_FALSE(OS.str().empty());
}

TEST(AsciiChart, SinglePointSeries) {
  // One sample: auto-scale sees YMin == YMax and must still render the
  // glyph somewhere on the canvas instead of dividing by a zero range.
  AsciiChart Chart(0.0, 1.0);
  Chart.addSeries(ChartSeries{"point", '@', {42.0}});
  std::ostringstream OS;
  Chart.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find('@'), std::string::npos);
  EXPECT_NE(Out.find("@ = point"), std::string::npos);
}

TEST(AsciiChart, DegenerateExplicitRange) {
  // YMin == YMax passed explicitly means "auto-scale"; a flat series then
  // still has a zero data range, which must widen rather than divide by 0.
  AsciiChart::Options Opts;
  Opts.YMin = 3.0;
  Opts.YMax = 3.0;
  AsciiChart Chart(0.0, 4.0, Opts);
  Chart.addSeries(ChartSeries{"flat", '#', {3.0, 3.0, 3.0}});
  std::ostringstream OS;
  Chart.print(OS);
  EXPECT_NE(OS.str().find('#'), std::string::npos);
}

TEST(AsciiChart, AllNaNSeriesRendersAxesOnly) {
  double NaN = std::nan("");
  AsciiChart Chart(0.0, 1.0);
  Chart.addSeries(ChartSeries{"gaps", '*', {NaN, NaN, NaN}});
  std::ostringstream OS;
  Chart.print(OS);
  std::string Out = OS.str();
  // Nothing to plot: the glyph appears exactly once, in the legend, and
  // the frame still renders.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '*'), 1);
  EXPECT_NE(Out.find('|'), std::string::npos);
  EXPECT_NE(Out.find("* = gaps"), std::string::npos);
}

TEST(Statistics, EmptyStatIsAllZeros) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.min(), 0.0);
  EXPECT_DOUBLE_EQ(S.max(), 0.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
}

TEST(Statistics, ConstantSeriesHasZeroSpread) {
  RunningStat S;
  for (int I = 0; I != 100; ++I)
    S.add(-2.5);
  EXPECT_EQ(S.count(), 100u);
  EXPECT_DOUBLE_EQ(S.mean(), -2.5);
  EXPECT_DOUBLE_EQ(S.min(), -2.5);
  EXPECT_DOUBLE_EQ(S.max(), -2.5);
  // Welford's update must not accumulate rounding noise on a constant.
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
}

TEST(Statistics, ExtremeMagnitudesStayFinite) {
  // Largest magnitudes whose squared deviations still fit in a double;
  // Welford's M2 must stay finite and symmetric samples cancel exactly.
  RunningStat S;
  S.add(1e150);
  S.add(-1e150);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_TRUE(std::isfinite(S.stddev()));
  EXPECT_DOUBLE_EQ(S.min(), -1e150);
  EXPECT_DOUBLE_EQ(S.max(), 1e150);
}

TEST(Statistics, StreamingMoments) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
  for (double V : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(V);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  // Sample stddev of the classic example set: sqrt(32/7).
  EXPECT_NEAR(S.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Statistics, SingleSample) {
  RunningStat S;
  S.add(3.5);
  EXPECT_DOUBLE_EQ(S.mean(), 3.5);
  EXPECT_DOUBLE_EQ(S.min(), 3.5);
  EXPECT_DOUBLE_EQ(S.max(), 3.5);
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
}

TEST(OptionParser, ParsesPairsAndPositionals) {
  const char *Argv[] = {"tool", "M=256M", "--c=50", "run", "x=not-a-number"};
  OptionParser P(5, Argv);
  EXPECT_TRUE(P.has("M"));
  EXPECT_EQ(P.getUInt("M", 0), uint64_t(256) << 20);
  EXPECT_EQ(P.getUInt("c", 0), 50u);
  EXPECT_THROW(P.getUInt("x", 9), std::invalid_argument);
  EXPECT_EQ(P.getUInt("absent", 3), 3u);
  ASSERT_EQ(P.positional().size(), 1u);
  EXPECT_EQ(P.positional()[0], "run");
}

TEST(OptionParser, WordCountSuffixes) {
  uint64_t V = 0;
  EXPECT_TRUE(OptionParser::parseWordCount("17", V));
  EXPECT_EQ(V, 17u);
  EXPECT_TRUE(OptionParser::parseWordCount("2K", V));
  EXPECT_EQ(V, 2048u);
  EXPECT_TRUE(OptionParser::parseWordCount("3m", V));
  EXPECT_EQ(V, uint64_t(3) << 20);
  EXPECT_TRUE(OptionParser::parseWordCount("1G", V));
  EXPECT_EQ(V, uint64_t(1) << 30);
  EXPECT_FALSE(OptionParser::parseWordCount("", V));
  EXPECT_FALSE(OptionParser::parseWordCount("K", V));
  EXPECT_FALSE(OptionParser::parseWordCount("5X", V));
  EXPECT_FALSE(OptionParser::parseWordCount("5KB", V));
}

TEST(OptionParser, MalformedPairs) {
  // "key=" (empty value) stays an option with an empty value; "=value"
  // has no key and is a positional; bare "=" likewise.
  const char *Argv[] = {"tool", "key=", "=value", "="};
  OptionParser P(4, Argv);
  EXPECT_TRUE(P.has("key"));
  EXPECT_EQ(P.getString("key", "fallback"), "");
  EXPECT_THROW(P.getUInt("key", 7), std::invalid_argument); // empty value
  EXPECT_THROW(P.getDouble("key", 7.0), std::invalid_argument);
  ASSERT_EQ(P.positional().size(), 2u);
  EXPECT_EQ(P.positional()[0], "=value");
  EXPECT_EQ(P.positional()[1], "=");
}

TEST(OptionParser, DuplicateKeysLastWins) {
  const char *Argv[] = {"tool", "n=1", "n=2", "--n=3"};
  OptionParser P(4, Argv);
  EXPECT_EQ(P.getUInt("n", 0), 3u);
}

TEST(OptionParser, OutOfRangeIntegersAreMalformed) {
  uint64_t V = 0;
  // UINT64_MAX parses; one more does not wrap around.
  EXPECT_TRUE(OptionParser::parseWordCount("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_FALSE(OptionParser::parseWordCount("18446744073709551616", V));
  // Suffix scaling must not wrap either.
  EXPECT_TRUE(OptionParser::parseWordCount("17179869183G", V));
  EXPECT_FALSE(OptionParser::parseWordCount("17179869184G", V));
  EXPECT_FALSE(OptionParser::parseWordCount("99999999999999999999K", V));

  const char *Argv[] = {"tool", "big=18446744073709551616",
                        "huge=17179869184G", "neg=-5"};
  OptionParser P(4, Argv);
  EXPECT_THROW(P.getUInt("big", 42), std::invalid_argument);
  EXPECT_THROW(P.getUInt("huge", 42), std::invalid_argument);
  // Word counts are unsigned; a negative value is malformed, while
  // getDouble accepts it.
  EXPECT_THROW(P.getUInt("neg", 42), std::invalid_argument);
  EXPECT_DOUBLE_EQ(P.getDouble("neg", 0.0), -5.0);
}

// A value that is present but does not parse is an error naming the
// word, never a silent fall back to the default.
TEST(OptionParser, MalformedNumbersThrowNamingTheWord) {
  const char *Argv[] = {"tool", "logm=abc", "c=5x", "t=0.5.1"};
  OptionParser P(4, Argv);
  auto Message = [&](auto Get) -> std::string {
    try {
      Get();
    } catch (const std::invalid_argument &Ex) {
      return Ex.what();
    }
    return "no exception";
  };
  EXPECT_EQ(Message([&] { P.getUInt("logm", 14); }),
            "invalid number 'abc' in logm=");
  EXPECT_EQ(Message([&] { P.getDouble("c", 50.0); }),
            "invalid number '5x' in c=");
  EXPECT_EQ(Message([&] { P.getDouble("t", 1.0); }),
            "invalid number '0.5.1' in t=");
  // Absent words still take the default.
  EXPECT_EQ(P.getUInt("absent", 14), 14u);
  EXPECT_DOUBLE_EQ(P.getDouble("absent", 50.0), 50.0);
}

TEST(OptionParser, DoublesAndBools) {
  const char *Argv[] = {"tool", "t=0.25", "v=true", "w=0"};
  OptionParser P(4, Argv);
  EXPECT_DOUBLE_EQ(P.getDouble("t", 1.0), 0.25);
  EXPECT_TRUE(P.getBool("v", false));
  EXPECT_FALSE(P.getBool("w", true));
  EXPECT_TRUE(P.getBool("absent", true));
}

} // namespace
