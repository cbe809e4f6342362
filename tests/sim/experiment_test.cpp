#include "sim/experiment.h"

#include <gtest/gtest.h>

namespace mrcp::sim {
namespace {

SimMetrics fake_metrics(int jobs, int late) {
  SimMetrics m;
  for (int i = 0; i < jobs; ++i) {
    JobRecord r;
    r.id = i;
    r.arrival = Time{i * 1000};
    r.earliest_start = r.arrival;
    r.deadline = r.arrival + Time{10000};
    r.completion = r.arrival + Time{i < late ? 20000 : 5000};
    r.late = r.completion > r.deadline;
    m.records.push_back(r);
  }
  m.total_sched_seconds = 0.5;
  return m;
}

TEST(SummarizeRun, ComputesPaperMetrics) {
  const SimMetrics m = fake_metrics(10, 2);
  const RunMetrics run = summarize_run(m, 0.0);
  EXPECT_DOUBLE_EQ(run.O_seconds, 0.05);  // 0.5s over 10 jobs
  EXPECT_DOUBLE_EQ(run.N_late, 2.0);
  EXPECT_DOUBLE_EQ(run.P_percent, 20.0);
  // T: 2 jobs at 20s, 8 at 5s -> (40 + 40) / 10 = 8 s.
  EXPECT_NEAR(run.T_seconds, 8.0, 1e-9);
}

TEST(SummarizeRun, WarmupTrimsEarlyJobs) {
  const SimMetrics m = fake_metrics(10, 2);  // late jobs are ids 0 and 1
  const RunMetrics run = summarize_run(m, 0.2);
  EXPECT_DOUBLE_EQ(run.N_late, 0.0);  // both late jobs trimmed
  EXPECT_DOUBLE_EQ(run.P_percent, 0.0);
  EXPECT_NEAR(run.T_seconds, 5.0, 1e-9);
}

TEST(Replicate, AggregatesAcrossReplications) {
  const ReplicatedMetrics agg = replicate(5, [](std::size_t rep) {
    RunMetrics m;
    m.O_seconds = 0.1;
    m.T_seconds = 100.0 + static_cast<double>(rep);
    m.N_late = static_cast<double>(rep % 2);
    m.P_percent = 1.0;
    return m;
  });
  EXPECT_EQ(agg.replications, 5u);
  EXPECT_DOUBLE_EQ(agg.O.mean, 0.1);
  EXPECT_DOUBLE_EQ(agg.O.half_width, 0.0);
  EXPECT_DOUBLE_EQ(agg.T.mean, 102.0);
  EXPECT_GT(agg.T.half_width, 0.0);
  EXPECT_DOUBLE_EQ(agg.P.mean, 1.0);
}

TEST(ResultTable, HeadersAndRowsAlign) {
  const auto headers = result_headers("lambda");
  const ReplicatedMetrics m;
  const auto row = result_row("0.01", m);
  EXPECT_EQ(headers.size(), row.size());
  EXPECT_EQ(headers[0], "lambda");
  EXPECT_EQ(row[0], "0.01");
}

}  // namespace
}  // namespace mrcp::sim
