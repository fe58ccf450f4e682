// Tests of the benchmark's own arithmetic: percentiles and their sample-count
// rule, ratios with their base, span self time and the residual, and the
// result line's shape.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/report.h"
#include "harness/stats.h"
#include "harness/workload_common.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 50), 3);  // input order is irrelevant
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90), 10);
  EXPECT_DOUBLE_EQ(Percentile({10, 20}, 90), 19);
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, 100), 3);
}

TEST(PercentileTest, SampleCountRuleLeavesTenSamplesBeyond) {
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(99), 1000u);
  EXPECT_EQ(MinSamplesFor(0), 10u);
}

TEST(PercentileTest, QuantileCarriesItsSampleCountAndFlag) {
  std::vector<double> v(99, 1.0);
  Quantile q = QuantileOf(v, 90);
  EXPECT_EQ(q.samples, 99u);
  EXPECT_FALSE(q.enough);
  v.push_back(1.0);
  q = QuantileOf(v, 90);
  EXPECT_EQ(q.samples, 100u);
  EXPECT_TRUE(q.enough);
  EXPECT_TRUE(QuantileOf(std::vector<double>(20, 3.0), 50).enough);
  EXPECT_FALSE(QuantileOf(std::vector<double>(19, 3.0), 50).enough);
}

TEST(RatioTest, KeepsBaseAndTreatsZeroBaseAsIdle) {
  Ratio r{3, 12};
  EXPECT_DOUBLE_EQ(r.value(), 0.25);
  EXPECT_DOUBLE_EQ((Ratio{5, 0}).value(), 0);

  Report report;
  report.AddRatio("wal.fsyncs_per_write", "count", {3, 12});
  EXPECT_DOUBLE_EQ(report.Value("wal.fsyncs_per_write"), 0.25);
  const std::string text = report.Text();
  EXPECT_NE(text.find("= 3 / 12"), std::string::npos) << text;
}

TEST(SpanTest, SelfTimeSubtractsChildrenOnce) {
  std::vector<Span> spans = {
      {"stmt", 0, 100, -1, 1},
      {"sql", 10, 30, 0, 1},
      {"udf", 20, 50, 0, 1},  // overlaps sql: 10..50 covered once = 40
      {"jvm", 25, 35, 2, 1},  // grandchild: counts against udf, not stmt
  };
  auto self = SelfTimeByLayer(spans);
  EXPECT_EQ(self["stmt"], 60);
  EXPECT_EQ(self["sql"], 20);
  EXPECT_EQ(self["udf"], 20);
  EXPECT_EQ(self["jvm"], 10);

  spans.push_back({"udf", 200, 230, -1, 2});  // same layer: summed
  EXPECT_EQ(SelfTimeByLayer(spans)["udf"], 50);
}

TEST(SpanTest, ChildrenAreClippedToTheParent) {
  std::vector<Span> spans = {
      {"stmt", 100, 200, -1, 1},
      {"net", 50, 120, 0, 1},   // starts before the parent
      {"sql", 190, 400, 0, 1},  // ends after it
  };
  EXPECT_EQ(SelfTimeByLayer(spans)["stmt"], 100 - 20 - 10);
}

TEST(SpanTest, ResidualIsUncoveredShareOfRoots) {
  std::vector<Span> spans = {
      {"stmt", 0, 100, -1, 1},
      {"udf", 0, 75, 0, 1},
      {"stmt", 200, 300, -1, 2},
  };
  EXPECT_DOUBLE_EQ(ResidualFraction(spans), (25.0 + 100.0) / 200.0);
  EXPECT_DOUBLE_EQ(ResidualFraction({}), 0);
}

TEST(SpanTest, DisabledTracerRecordsNothing) {
  Tracer off(false);
  EXPECT_EQ(off.Record("sql", 0, 1, -1, 1), -1);
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  EXPECT_EQ(on.Record("stmt", 5, 9, -1, 7), 0);
  EXPECT_EQ(on.Record("sql", 5, 6, 0, 7), 1);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].request, 7u);
}

TEST(AttributeLayersTest, LaysCounterTimeEndToEndInsideTheStatement) {
  Tracer tracer(true);
  const int root = tracer.Record("stmt", 1000, 2000, -1, 3);
  Totals delta = {{"udf.jni.latency_ns.sum", 300},
                  {"udf.icpp.latency_ns.sum", 900}};
  AttributeLayers(&tracer, root, delta, {{"sql", 100}});
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].layer, "sql");
  EXPECT_EQ(spans[1].start_ns, 1000);
  EXPECT_EQ(spans[2].layer, "udf");
  EXPECT_EQ(spans[2].start_ns, 1100);
  EXPECT_EQ(spans[2].end_ns, 1400);
  EXPECT_EQ(spans[3].layer, "ipc");
  EXPECT_EQ(spans[3].end_ns, 2000);  // clipped: 900 ns did not fit
  EXPECT_DOUBLE_EQ(ResidualFraction(spans), 0);
}

TEST(ReportTest, ResultLineHasTheFourKeysAndFullDigits) {
  Report report;
  report.SetContext("seed", "5");
  report.Add("latency_ms", "ms", 1.2345678901234567);
  report.AddQuantile("read_p90_ms", "ms", QuantileOf({1e6, 2e6}, 90), 1e6);
  const std::string line = report.JsonLine(true, 10, 0);
  ASSERT_EQ(line.rfind(kResultPrefix, 0), 0u);
  EXPECT_NE(line.find("\"correct\": true"), std::string::npos);
  EXPECT_NE(line.find("\"attempted\": 10"), std::string::npos);
  EXPECT_NE(line.find("\"failed\": 0"), std::string::npos);
  EXPECT_NE(line.find("1.2345678901234567"), std::string::npos) << line;
  EXPECT_NE(line.find("too few samples"), std::string::npos) << line;
}

TEST(ReportTest, NonFiniteValuesAreNotPrintedAsJsonNumbers) {
  Report report;
  report.Add("x", "frac", std::nan(""));
  EXPECT_DOUBLE_EQ(report.Value("x"), 0);
  EXPECT_NE(report.Text().find("not finite"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
