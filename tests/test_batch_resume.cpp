// Crash-safety matrix for the batch service (docs/DURABILITY.md):
// journal round-trip and torn-tail recovery, SIGKILL-anywhere resume with
// byte-identical outputs, graceful shutdown, retry/watchdog tallies, and
// the explore checkpoint/restore contract. The `batch_kill` fault site is
// forced here (from fork()ed children — it raises SIGKILL), completing
// the closed-site coverage matrix started in test_faults.cpp.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/first_fit.h"
#include "alloc/intersection_graph.h"
#include "alloc/pool_checker.h"
#include "graphs/filterbank.h"
#include "lifetime/lifetime_extract.h"
#include "lifetime/schedule_tree.h"
#include "obs/json_report.h"
#include "pipeline/batch.h"
#include "pipeline/explore.h"
#include "pipeline/governor.h"
#include "sdf/io.h"
#include "sdf/repetitions.h"
#include "util/fault.h"
#include "util/journal.h"
#include "util/shutdown.h"
#include "util/status.h"

#include "test_util.h"

namespace sdf {
namespace {

namespace fs = std::filesystem;
using sdf::testing::random_consistent_graph;

class BatchResume : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    util::reset_shutdown();
    char tmpl[] = "/tmp/sdfmem_batch_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    fault::clear();
    util::reset_shutdown();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& rel) const {
    return dir_ + "/" + rel;
  }

  /// Writes a seeded random graph as jobs/<name>.sdf and returns its path.
  std::string write_job(const std::string& name, std::uint32_t seed) {
    fs::create_directories(path("jobs"));
    const std::string p = path("jobs/" + name + ".sdf");
    std::ofstream out(p);
    out << write_graph_text(random_consistent_graph(seed, 5));
    EXPECT_TRUE(bool(out));
    return p;
  }

  static std::string read_file(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << p;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// Byte-compares every per-job output (and the summary) in two dirs.
  static void expect_same_outputs(const std::string& ref,
                                  const std::string& got) {
    for (const auto& entry : fs::directory_iterator(ref)) {
      const std::string name = entry.path().filename().string();
      if (name.find(".json") == std::string::npos) continue;
      SCOPED_TRACE(name);
      EXPECT_EQ(read_file(entry.path().string()), read_file(got + "/" + name));
    }
  }

  std::string dir_;
};

// --- journal layer ----------------------------------------------------

TEST_F(BatchResume, JournalRoundTripsAndTruncatesTornTail) {
  const std::string journal = path("j.journal");
  {
    util::JournalWriter w = util::JournalWriter::create(journal, "header");
    w.append("one");
    w.append(std::string(1000, 'x'));
    w.append("three");
  }
  util::RecoveredJournal rec = util::recover_journal(journal);
  EXPECT_FALSE(rec.torn_tail);
  ASSERT_EQ(rec.records.size(), 4u);
  EXPECT_EQ(rec.records[0], "header");
  EXPECT_EQ(rec.records[2], std::string(1000, 'x'));
  const std::uint64_t intact = rec.valid_bytes;

  // A torn append: length prefix promising 64 bytes, only 3 present.
  {
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    const char torn[] = {64, 0, 0, 0, 1, 2, 3, 4, 'a', 'b', 'c'};
    out.write(torn, sizeof torn);
  }
  rec = util::recover_journal(journal);
  EXPECT_TRUE(rec.torn_tail);
  ASSERT_EQ(rec.records.size(), 4u);  // intact prefix untouched
  EXPECT_EQ(rec.valid_bytes, intact);

  // Resuming truncates the tail and appends cleanly after it.
  {
    util::JournalWriter w =
        util::JournalWriter::append_to(journal, rec.valid_bytes);
    w.append("four");
  }
  rec = util::recover_journal(journal);
  EXPECT_FALSE(rec.torn_tail);
  ASSERT_EQ(rec.records.size(), 5u);
  EXPECT_EQ(rec.records[4], "four");
}

TEST_F(BatchResume, CorruptedRecordStopsRecoveryAtLastIntactOne) {
  const std::string journal = path("j.journal");
  {
    util::JournalWriter w = util::JournalWriter::create(journal, "header");
    w.append("one");
    w.append("two");
  }
  // Flip a payload byte of the last record: its CRC now fails, so
  // recovery must treat it (and everything after) as a torn tail.
  {
    std::fstream f(journal,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }
  const util::RecoveredJournal rec = util::recover_journal(journal);
  EXPECT_TRUE(rec.torn_tail);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[1], "one");
}

TEST_F(BatchResume, NonJournalsAreCorruptNotTorn) {
  const std::string bad = path("not_a_journal");
  std::ofstream(bad) << "definitely not SDFJRNL1 content";
  EXPECT_THROW((void)util::recover_journal(bad), CorruptJournalError);

  const std::string empty = path("empty");
  std::ofstream(empty).flush();
  EXPECT_THROW((void)util::recover_journal(empty), CorruptJournalError);

  EXPECT_THROW((void)util::recover_journal(path("missing")), IoError);

  // A corrupt journal carries the documented error code.
  try {
    (void)util::recover_journal(bad);
    FAIL();
  } catch (const CorruptJournalError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptJournal);
  }
}

TEST_F(BatchResume, CreateRefusesToOverwriteAJournal) {
  const std::string journal = path("j.journal");
  { (void)util::JournalWriter::create(journal, "h"); }
  EXPECT_THROW((void)util::JournalWriter::create(journal, "h"),
               BadArgumentError);
}

// --- scan_jobs ----------------------------------------------------------

TEST_F(BatchResume, ScanJobsHandlesDirsManifestsAndDuplicates) {
  write_job("b", 2);
  write_job("a", 1);
  const std::vector<BatchJob> from_dir = scan_jobs(path("jobs"));
  ASSERT_EQ(from_dir.size(), 2u);
  EXPECT_EQ(from_dir[0].name, "a");  // sorted, not directory order
  EXPECT_EQ(from_dir[1].name, "b");

  // Manifest: comments, blank lines, duplicate stems from different dirs.
  fs::create_directories(path("other"));
  fs::copy_file(path("jobs/a.sdf"), path("other/a.sdf"));
  std::ofstream manifest(path("list.txt"));
  manifest << "# a manifest\n\njobs/a.sdf\nother/a.sdf\njobs/b.sdf\n";
  manifest.close();
  const std::vector<BatchJob> from_manifest = scan_jobs(path("list.txt"));
  ASSERT_EQ(from_manifest.size(), 3u);
  EXPECT_EQ(from_manifest[0].name, "a");
  EXPECT_EQ(from_manifest[1].name, "a~2");  // deduplicated stem
  EXPECT_EQ(from_manifest[2].name, "b");

  EXPECT_THROW((void)scan_jobs(path("nowhere")), IoError);
  fs::create_directories(path("empty_dir"));
  EXPECT_THROW((void)scan_jobs(path("empty_dir")), BadArgumentError);
}

// --- explore checkpoint/restore ----------------------------------------

/// Fingerprint covering every deterministic field of an explore result.
std::string fingerprint(const ExploreResult& r) {
  std::ostringstream out;
  for (const DesignPoint& p : r.points) {
    out << p.strategy << "|" << p.code_size << "|" << p.shared_memory << "|"
        << p.nonshared_memory << "|" << p.pareto << "|" << p.degraded_from
        << "\n";
  }
  out << "frontier:";
  for (const DesignPoint& p : r.frontier) {
    out << " " << p.strategy << "(" << p.code_size << ","
        << p.shared_memory << ")";
  }
  out << "\ndropped:" << r.points_dropped
      << " retries:" << r.retries
      << " exhausted:" << r.retries_exhausted
      << " requeues:" << r.watchdog_requeues << "\n";
  return out.str();
}

TEST_F(BatchResume, ExploreRestoreReproducesTheRunByteForByte) {
  const Graph g = random_consistent_graph(11, 6);
  std::map<std::size_t, TaskOutcome> outcomes;
  std::mutex mu;
  ExploreOptions record;
  record.on_task_done = [&](std::size_t i, const TaskOutcome& o) {
    const std::lock_guard<std::mutex> lock(mu);
    outcomes[i] = o;
  };
  const ExploreResult reference = explore_designs(g, record);
  ASSERT_EQ(outcomes.size(),
            static_cast<std::size_t>(reference.tasks_total));

  // Full restore: nothing is evaluated, the output is identical.
  ExploreOptions restore_all;
  restore_all.restore = &outcomes;
  const ExploreResult restored = explore_designs(g, restore_all);
  EXPECT_EQ(restored.tasks_restored, reference.tasks_total);
  EXPECT_EQ(fingerprint(restored), fingerprint(reference));

  // Partial restore at several thread counts: still identical.
  std::map<std::size_t, TaskOutcome> half;
  for (const auto& [i, o] : outcomes) {
    if (i % 2 == 0) half[i] = o;
  }
  for (const int jobs : {1, 8}) {
    ExploreOptions partial;
    partial.restore = &half;
    partial.jobs = jobs;
    const ExploreResult r = explore_designs(g, partial);
    EXPECT_EQ(r.tasks_restored,
              static_cast<std::int64_t>(half.size()));
    EXPECT_EQ(fingerprint(r), fingerprint(reference)) << "jobs=" << jobs;
  }

  // The restored frontier's schedules round-tripped through text: prove
  // one end-to-end with the execution-level pool checker.
  const Repetitions q = repetitions_vector(g);
  bool checked = false;
  for (const DesignPoint& p : restored.frontier) {
    if (!p.schedule.is_single_appearance(g.num_actors())) continue;
    const ScheduleTree tree(g, p.schedule);
    const std::vector<BufferLifetime> lifetimes =
        extract_lifetimes(g, q, tree);
    const IntersectionGraph wig = build_intersection_graph(tree, lifetimes);
    const Allocation alloc =
        first_fit(wig, lifetimes, FirstFitOrder::kByDuration);
    const PoolCheckResult check = check_allocation_by_execution(
        g, p.schedule, lifetimes, alloc);
    EXPECT_TRUE(check.ok) << check.error;
    checked = true;
    break;
  }
  EXPECT_TRUE(checked) << "no SAS frontier point to validate";
}

TEST_F(BatchResume, RetriesAndWatchdogTalliesAreConsistent) {
  const Graph g = random_consistent_graph(3, 6);

  // Find a seed where the baseline sweep drops at least one task.
  std::uint64_t seed = 0;
  std::int64_t baseline_dropped = 0;
  for (std::uint64_t s = 1; s <= 64 && baseline_dropped == 0; ++s) {
    fault::configure("explore_point:4", s);
    baseline_dropped = explore_designs(g, {}).points_dropped;
    seed = s;
  }
  ASSERT_GT(baseline_dropped, 0) << "no seed dropped a task";

  // Retries re-draw the fault per attempt, so some drops recover; the
  // rest exhaust their retries.
  fault::configure("explore_point:4", seed);
  ExploreOptions with_retries;
  with_retries.max_point_retries = 3;
  const ExploreResult retried = explore_designs(g, with_retries);
  EXPECT_GT(retried.retries, 0);
  EXPECT_LE(retried.points_dropped, baseline_dropped);
  EXPECT_EQ(retried.retries_exhausted, retried.points_dropped);

  // The watchdog requeues exactly the exhausted tasks; each either lands
  // at the flat tier (requeued) or fails once more (dropped).
  fault::configure("explore_point:4", seed);
  ExploreOptions with_watchdog = with_retries;
  with_watchdog.watchdog_requeue = true;
  const ExploreResult requeued = explore_designs(g, with_watchdog);
  EXPECT_EQ(requeued.watchdog_requeues + requeued.points_dropped,
            retried.points_dropped);
  if (requeued.watchdog_requeues > 0) {
    bool saw_watchdog_point = false;
    for (const DesignPoint& p : requeued.points) {
      if (p.degraded_from.find(">watchdog") != std::string::npos) {
        saw_watchdog_point = true;
      }
    }
    EXPECT_TRUE(saw_watchdog_point);
  }

  // The whole retry/watchdog pipeline is thread-count independent.
  fault::configure("explore_point:4", seed);
  ExploreOptions parallel = with_watchdog;
  parallel.jobs = 8;
  const ExploreResult par = explore_designs(g, parallel);
  EXPECT_EQ(fingerprint(par), fingerprint(requeued));
}

TEST_F(BatchResume, WatchdogRequeuePastTheDeadlineStillYieldsItsPoint) {
  // qmf235(4)'s period is 8250 firings: more than one 4096-firing check
  // stride of the simulator, far fewer than the 2^22 it bounds. Which
  // tasks fail is keyed by fault context only, so a sweep under a deadline
  // that has already passed requeues exactly the tasks an ungoverned sweep
  // requeues, and the flat retries land instead of being dropped.
  const Graph g = qmf235(4);
  ExploreOptions options;
  options.watchdog_requeue = true;
  std::uint64_t seed = 0;
  ExploreResult free_run;
  for (std::uint64_t s = 1; s <= 64 && free_run.watchdog_requeues == 0; ++s) {
    fault::configure("explore_point:4", s);
    free_run = explore_designs(g, options);
    seed = s;
  }
  ASSERT_GT(free_run.watchdog_requeues, 0) << "no seed requeued a task";

  ResourceGovernor governor(ResourceBudget{/*deadline_ms=*/1, 0});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(governor.deadline_expired());
  fault::configure("explore_point:4", seed);
  const ResourceGovernor::Scope scope(governor);
  const ExploreResult late = explore_designs(g, options);
  EXPECT_EQ(late.watchdog_requeues, free_run.watchdog_requeues);
  EXPECT_EQ(late.points_dropped, free_run.points_dropped);
  bool saw_watchdog_point = false;
  for (const DesignPoint& p : late.points) {
    if (p.degraded_from.find(">watchdog") != std::string::npos) {
      saw_watchdog_point = true;
    }
  }
  EXPECT_TRUE(saw_watchdog_point);
}

TEST_F(BatchResume, ExploreCancelStopsAdmittingTasks) {
  const Graph g = random_consistent_graph(7, 6);
  std::atomic<bool> cancel{false};
  std::atomic<std::int64_t> done{0};
  ExploreOptions options;
  options.cancel = &cancel;
  options.on_task_done = [&](std::size_t, const TaskOutcome&) {
    if (done.fetch_add(1) + 1 >= 3) cancel.store(true);
  };
  const ExploreResult r = explore_designs(g, options);
  EXPECT_TRUE(r.cancelled);
  EXPECT_GE(done.load(), 3);
  EXPECT_LT(done.load(), r.tasks_total);  // some tasks were never admitted
}

// --- batch crash matrix -------------------------------------------------

/// Recovers the finalized journal and asserts every (job, task) was
/// evaluated at most once across the original run and all resumes.
void expect_no_task_ran_twice(const std::string& done_journal) {
  const util::RecoveredJournal rec = util::recover_journal(done_journal);
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  std::set<std::int64_t> jobs_done;
  for (std::size_t i = 1; i < rec.records.size(); ++i) {
    const obs::Json r = obs::Json::parse(rec.records[i]);
    if (r.find("type") == nullptr) continue;
    if (r.find("type")->as_string() == "task") {
      const auto key = std::make_pair(r.find("job")->as_int(),
                                      r.find("task")->as_int());
      EXPECT_TRUE(seen.insert(key).second)
          << "task " << key.second << " of job " << key.first
          << " journaled twice";
    } else if (r.find("type")->as_string() == "job_done") {
      EXPECT_TRUE(jobs_done.insert(r.find("job")->as_int()).second)
          << "job finished twice";
    }
  }
}

TEST_F(BatchResume, SigkillAnywhereThenResumeIsByteIdentical) {
  write_job("alpha", 21);
  write_job("beta", 22);
  const std::vector<BatchJob> jobs = scan_jobs(path("jobs"));

  // Uninterrupted reference run.
  BatchOptions ref_opts;
  ref_opts.out_dir = path("ref");
  ref_opts.jobs = 2;
  const BatchResult ref = run_batch(jobs, ref_opts);
  EXPECT_TRUE(ref.all_ok());

  // Kill a child batch at a seeded journal append, then resume in this
  // process — alternating resume thread counts — and require the exact
  // reference bytes.
  int resume_jobs = 1;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string out = path("out" + std::to_string(seed));
    BatchOptions opts;
    opts.out_dir = out;
    opts.jobs = 2;

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: arm the SIGKILL site and run. _exit keeps gtest state out
      // of the child's teardown; reaching it means the kill never fired.
      fault::configure("batch_kill:6", seed);
      try {
        (void)run_batch(jobs, opts);
      } catch (...) {
        ::_exit(9);
      }
      ::_exit(7);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << status;
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    const BatchResult resumed =
        resume_batch(out + "/batch.journal", resume_jobs);
    resume_jobs = resume_jobs == 1 ? 8 : 1;
    EXPECT_TRUE(resumed.all_ok());
    EXPECT_EQ(resumed.jobs_total, ref.jobs_total);
    expect_same_outputs(path("ref"), out);
    expect_no_task_ran_twice(out + "/batch.journal.done");

    // Resuming a finalized batch is a no-op that reports completion.
    const BatchResult again = resume_batch(out + "/batch.journal");
    EXPECT_EQ(again.jobs_skipped + again.jobs_failed, again.jobs_total);
  }
}

TEST_F(BatchResume, SigtermDrainsCheckpointsAndResumes) {
  fs::create_directories(path("jobs"));
  for (int i = 0; i < 16; ++i) {
    write_job("g" + std::string(1, static_cast<char>('a' + i)), 31);
  }
  const std::vector<BatchJob> jobs = scan_jobs(path("jobs"));

  BatchOptions ref_opts;
  ref_opts.out_dir = path("ref");
  const BatchResult ref = run_batch(jobs, ref_opts);
  EXPECT_TRUE(ref.all_ok());

  BatchOptions opts;
  opts.out_dir = path("out");
  const std::string journal = path("out/batch.journal");

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    util::install_shutdown_handlers();
    try {
      const BatchResult r = run_batch(jobs, opts);
      ::_exit(r.interrupted ? 23 : 0);
    } catch (...) {
      ::_exit(9);
    }
  }
  // Wait for the journal to gain its first records, then ask the child
  // to stop. It may legitimately win the race and finish first.
  for (int spin = 0; spin < 2000; ++spin) {
    std::error_code ec;
    if (fs::exists(journal, ec) && fs::file_size(journal, ec) > 64) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid, SIGTERM);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  const int code = WEXITSTATUS(status);
  ASSERT_TRUE(code == 23 || code == 0) << "child exited " << code;

  if (code == 23) {
    const BatchResult resumed = resume_batch(journal);
    EXPECT_TRUE(resumed.all_ok());
    EXPECT_GT(resumed.jobs_skipped + resumed.jobs_ok, 0);
  }
  expect_same_outputs(path("ref"), path("out"));
  expect_no_task_ran_twice(journal + ".done");
}

TEST_F(BatchResume, ShutdownBeforeStartIsTypedInterrupted) {
  write_job("solo", 41);
  util::request_shutdown(SIGTERM);
  BatchOptions opts;
  opts.out_dir = path("out");
  try {
    (void)run_batch(scan_jobs(path("jobs")), opts);
    FAIL() << "expected InterruptedError";
  } catch (const InterruptedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
  }
  util::reset_shutdown();
}

TEST_F(BatchResume, RestartingAnInterruptedBatchIsRefused) {
  write_job("solo", 42);
  const std::vector<BatchJob> jobs = scan_jobs(path("jobs"));
  BatchOptions opts;
  opts.out_dir = path("out");
  const BatchResult r = run_batch(jobs, opts);
  EXPECT_TRUE(r.all_ok());
  // The finalized journal is gone, but a half-run one (simulated by
  // recreating it) must block a fresh `batch` at the same path.
  { (void)util::JournalWriter::create(path("out/batch.journal"), "stale"); }
  EXPECT_THROW((void)run_batch(jobs, opts), BadArgumentError);
}

}  // namespace
}  // namespace sdf
