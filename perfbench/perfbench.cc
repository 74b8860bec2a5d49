// perfbench: the repository's dual-clock campaign benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload's campaigns through the program's public entry points and
// prints, as the last line of stdout, {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones (host and virtual clock); with
// --trace 1 each round runs twice, untraced and traced, and the metrics are the
// per-layer ones. Details (per-campaign virtual results, their digest, the checks
// and, when traced, the per-layer table) go to DIR/<workload>-seed<N>-trace<T>.json.
// See README.md beside this file.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "perfbench/trace.h"
#include "src/common/hash.h"
#include "src/core/board_farm.h"
#include "src/core/replay.h"
#include "src/fleet/orchestrator.h"
#include "src/fleet/worker.h"
#include "src/fuzz/program_text.h"
#include "src/os/all_oses.h"

namespace perfbench {
namespace {

using eof::CampaignResult;
using eof::FuzzerConfig;
using eof::RestoreMode;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  std::vector<const char*> kernels;  // campaigns of one round, in this fixed order
  RestoreMode mode;
  int budget_minutes;  // virtual budget per campaign (per shard in the fleet)
  int shards;          // 0 = one board per campaign; >0 = fleet with sequential shards
  // Nominal host seconds of one untraced round on a 4-core x86 box; --seconds
  // divided by it fixes the number of rounds, so a seed always gives the same
  // campaigns regardless of how fast the host is.
  double round_seconds;
  // Kernel of the fault probe, a campaign that ends every round with kProbeSeed
  // whatever --seed is; nullptr for none. See ReplayBugs.
  const char* probe = nullptr;
};

// The probe's seed. On rtthread in reflash mode it reports four bugs, three of
// which a freshly deployed board does not crash on.
constexpr uint64_t kProbeSeed = 7;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"solo-reflash", {"freertos", "rtthread", "nuttx", "zephyr", "pokos"},
       RestoreMode::kReflash, 10, 0, 2.6, "rtthread"},
      {"solo-snapshot", {"rtthread", "nuttx", "zephyr"}, RestoreMode::kSnapshot, 10, 0,
       1.2},
      {"fleet-sequential", {"zephyr"}, RestoreMode::kReflash, 20, 3, 0.45},
  };
  return workloads;
}

// Campaign seed of round `round`: round 0 uses --seed itself, so its campaigns are
// the ones `eof fuzz <os> <minutes> <seed>` runs.
uint64_t RoundSeed(uint64_t seed, int round) {
  return round == 0 ? seed : eof::DeriveSeedStream(seed, static_cast<uint64_t>(round));
}

FuzzerConfig MakeConfig(const WorkloadSpec& workload, const char* kernel, uint64_t seed) {
  FuzzerConfig config;
  config.os_name = kernel;
  config.restore_mode = workload.mode;
  config.budget = static_cast<eof::VirtualDuration>(workload.budget_minutes) *
                  eof::kVirtualMinute;
  config.seed = seed;
  config.export_corpus = true;  // observer-only: the parse check reads the corpus
  return config;
}

// ---------------------------------------------------------------------------
// Campaign outcomes

struct Bug {
  int catalog_id = 0;
  std::string excerpt;
  std::string program_text;
  std::string validation;  // the scheduler's cold-boot verdict
  bool replay_confirmed = false;  // set by ReplayBugs
};

struct CampaignOutcome {
  FuzzerConfig config;
  CampaignResult result;  // fleet: merged, with the shards' series concatenated
  std::vector<Bug> bugs;
  std::vector<CampaignResult> batches;  // fleet only, in shard order
  bool probe = false;  // the fault probe: seeded with kProbeSeed, not --seed
  double setup_s = 0;
  double fuzz_s = 0;
  size_t unparsable = 0;    // corpus programs / reproducers the mined specs reject
  uint64_t edges_seen = 0;  // traced solo runs: distinct edge ids in ExecOutcome::hits
};

// Everything a virtual-clock metric is computed from. Two runs of the same code
// and seed must render the same text.
std::string VirtualRecord(const CampaignOutcome& c) {
  const CampaignResult& r = c.result;
  std::string out;
  auto add = [&out](const char* key, uint64_t value) {
    out += key;
    out += '=';
    out += std::to_string(value);
    out += ' ';
  };
  out += c.config.os_name + ' ';
  add("seed", c.config.seed);
  add("execs", r.execs);
  add("elapsed", r.elapsed);
  add("coverage", r.final_coverage);
  add("corpus", r.corpus_size);
  add("crashes", r.crashes);
  add("restores", r.restores);
  add("warm", r.snapshot_restores);
  add("link.transactions", r.link.transactions);
  add("link.batches", r.link.batches);
  add("link.batched_ops", r.link.batched_ops);
  add("link.bytes_read", r.link.bytes_read);
  add("link.bytes_written", r.link.bytes_written);
  add("link.flash_bytes", r.link.flash_bytes);
  add("link.flash_skipped", r.link.flash_skipped_bytes);
  add("link.resets", r.link.resets);
  add("link.warm_restores", r.link.warm_restores);
  out += "series";
  for (const eof::CampaignSample& sample : r.series) {
    out += ' ' + std::to_string(sample.time) + ':' + std::to_string(sample.coverage);
  }
  out += " bugs";
  for (const Bug& bug : c.bugs) {
    out += ' ' + std::to_string(bug.catalog_id) + '/' +
           std::to_string(eof::Fnv1a(bug.excerpt)) + '/' + bug.validation;
  }
  for (const CampaignResult& batch : c.batches) {
    add(" batch.execs", batch.execs);
    add("batch.coverage", batch.final_coverage);
  }
  return out;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string Digest(const std::vector<CampaignOutcome>& campaigns) {
  uint64_t hash = eof::kFnvOffsetBasis;
  for (const CampaignOutcome& c : campaigns) {
    hash = eof::Fnv1a(VirtualRecord(c), hash);
  }
  return Hex(hash);
}

size_t CountUnparsable(const eof::spec::CompiledSpecs& specs, const CampaignOutcome& c) {
  size_t bad = 0;
  for (const std::string& text : c.result.corpus_programs) {
    bad += eof::fuzz::ParseProgramText(specs, text).ok() ? 0 : 1;
  }
  for (const Bug& bug : c.bugs) {
    bad += eof::fuzz::ParseProgramText(specs, bug.program_text).ok() ? 0 : 1;
  }
  return bad;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Traced state

struct TraceState {
  SpanLog log;
  int prepare = log.Name("spec.prepare");
  int deploy = log.Name("core.deploy");
  int loop = log.Name("loop");
  int next = log.Name("fuzz.next_program");
  int encode = log.Name("agent.encode");
  int plain = log.Name("core.exec_plain");
  int reboot = log.Name("hw.reboot_exec");
  int reflash = log.Name("hw.reflash_exec");
  int warm = log.Name("hw.warm_exec");
  int merge = log.Name("common.local_merge");
  int outcome = log.Name("core.on_outcome");
  int validation = log.Name("core.validation_replay");
  int fleet = log.Name("fleet.campaign");

  uint64_t programs = 0;
  uint64_t calls = 0;
  uint64_t mailbox_bytes = 0;
  uint64_t validation_replays = 0;
  uint64_t corpus = 0;
  uint64_t execs = 0;
  uint64_t restores = 0;
  eof::DebugPortStats link;                     // summed over campaigns
  eof::telemetry::MetricsSnapshot boards;       // solo: merged board registries
  std::map<eof::fleet::MsgType, FrameCount> frames;
  std::vector<uint64_t> grant_bytes;
  uint64_t journal_rows = 0;
  uint64_t journal_bytes = 0;
  uint64_t fleet_execs = 0;
};

// The body of eof::RunFarmSession for a one-board campaign (worker 0, no journal
// emitter, no cancel or progress hooks), with a span around each call into a layer.
// It must keep making the same calls in the same order: the traced run's virtual
// results are checked against the untraced run's.
eof::Status TracedSession(eof::FarmSession* session, eof::CampaignScheduler* scheduler,
                          const eof::spec::CompiledSpecs& specs,
                          const FuzzerConfig& config,
                          eof::telemetry::MetricsRegistry* campaign_registry,
                          TraceState* t, std::unordered_set<uint64_t>* edges) {
  eof::TargetExecutor& executor = *session->executor;
  eof::telemetry::MetricsRegistry& board = executor.telemetry()->registry();
  // Registration is idempotent: these return the handles the layers already hold.
  eof::telemetry::Counter* resets = board.RegisterCounter("link.resets");
  eof::telemetry::Counter* warm_restores = board.RegisterCounter("link.warm_restores");
  eof::telemetry::Counter* restores = board.RegisterCounter("exec.restores");
  eof::telemetry::Counter* replays =
      campaign_registry->RegisterCounter("campaign.validation_replays");
  SpanLog& log = t->log;
  int root = log.Open(t->loop, -1);
  uint64_t execs_run = 0;
  while (executor.Elapsed() < config.budget &&
         (config.max_execs == 0 || execs_run < config.max_execs)) {
    int64_t t0 = log.Now();
    eof::fuzz::Program program = scheduler->NextProgram(*session->generator, *session->rng);
    int64_t t1 = log.Now();
    std::vector<uint8_t> encoded;
    bool runnable = eof::EncodeForMailbox(specs, &program, &encoded);
    int64_t t2 = log.Now();
    log.Add(t->next, root, t0, t1);
    log.Add(t->encode, root, t1, t2);
    if (!runnable) {
      continue;
    }
    ++t->programs;
    t->calls += program.calls.size();
    t->mailbox_bytes += encoded.size();

    uint64_t resets0 = resets->Value();
    uint64_t warm0 = warm_restores->Value();
    uint64_t restores0 = restores->Value();
    eof::VirtualTime v0 = executor.Elapsed();
    int64_t t3 = log.Now();
    eof::Result<eof::ExecOutcome> outcome_or = executor.ExecuteOne(encoded);
    int64_t t4 = log.Now();
    int kind = t->plain;
    if (warm_restores->Value() != warm0) {
      kind = t->warm;
    } else if (restores->Value() != restores0) {
      kind = t->reflash;
    } else if (resets->Value() != resets0) {
      kind = t->reboot;
    }
    log.Add(kind, root, t3, t4, executor.Elapsed() - v0);
    if (!outcome_or.ok()) {
      session->status = outcome_or.status();
      break;
    }
    eof::ExecOutcome outcome = std::move(outcome_or).value();
    ++execs_run;
    for (const eof::CovHit& hit : outcome.hits) {
      edges->insert(hit.edge);
    }

    int64_t t5 = log.Now();
    std::vector<eof::CovHit> fresh_here;
    session->local_coverage.AddBatchAttributed(outcome.hits, &fresh_here);
    outcome.hits = std::move(fresh_here);
    int64_t t6 = log.Now();
    uint64_t replays0 = replays->Value();
    scheduler->OnOutcome(program, outcome, *session->generator, executor.Elapsed(), 0);
    int64_t t7 = log.Now();
    log.Add(t->merge, root, t5, t6);
    log.Add(replays->Value() != replays0 ? t->validation : t->outcome, root, t6, t7);
  }
  executor.SetCoverageGauge(session->local_coverage.Count());
  scheduler->OnWorkerDone(0);
  log.Close(root);
  t->validation_replays += replays->Value();
  return session->status;
}

// ---------------------------------------------------------------------------
// One-board campaign: the steps of eof::BoardFarm::Run with one board, with
// set-up (PrepareCampaign ... MakeFarmSession) timed apart from fuzzing.

eof::Result<CampaignOutcome> RunSolo(const FuzzerConfig& config, TraceState* trace) {
  using eof::telemetry::CampaignTelemetry;
  CampaignOutcome out;
  out.config = config;
  SpanLog clock;
  int64_t start = clock.Now();

  int64_t p0 = trace != nullptr ? trace->log.Now() : 0;
  ASSIGN_OR_RETURN(eof::CampaignPlan plan, eof::PrepareCampaign(config));
  if (trace != nullptr) {
    trace->log.Add(trace->prepare, -1, p0, trace->log.Now());
  }
  ASSIGN_OR_RETURN(std::unique_ptr<CampaignTelemetry> telemetry,
                   CampaignTelemetry::Create(eof::MakeTelemetryOptions(config, 1)));
  eof::CampaignScheduler::Options scheduler_options = eof::MakeSchedulerOptions(config, 1);
  scheduler_options.registry = &telemetry->campaign_registry();
  scheduler_options.sink = telemetry->sink();
  eof::CampaignScheduler scheduler(plan.specs, scheduler_options);
  scheduler.SeedCorpus(config.seed_programs);
  int64_t d0 = trace != nullptr ? trace->log.Now() : 0;
  ASSIGN_OR_RETURN(eof::FarmSession session,
                   eof::MakeFarmSession(config, plan, eof::FarmWorkerSeed(config.seed, 0),
                                        telemetry->board(0)));
  if (trace != nullptr) {
    trace->log.Add(trace->deploy, -1, d0, trace->log.Now());
  }
  telemetry->CampaignStart(config.os_name, config.board_name);
  telemetry->StartEmitter([&scheduler] { return scheduler.View(); });
  int64_t fuzz_start = clock.Now();

  std::unordered_set<uint64_t> edges;
  if (trace == nullptr) {
    std::atomic<bool> stop(false);
    eof::RunFarmSession(&session, 0, &scheduler, &plan.specs, config.budget,
                        config.max_execs, &stop, telemetry->emitter());
    RETURN_IF_ERROR(session.status);
  } else {
    RETURN_IF_ERROR(TracedSession(&session, &scheduler, plan.specs, config,
                                  &telemetry->campaign_registry(), trace, &edges));
  }
  eof::telemetry::MetricsSnapshot merged = telemetry->MergedBoardSnapshot();
  eof::VirtualTime elapsed = session.executor->Elapsed();
  out.result = scheduler.Finalize(eof::ExecStatsFromSnapshot(merged), elapsed,
                                  eof::DebugPortStatsFromSnapshot(merged));
  telemetry->CampaignEnd(elapsed);
  int64_t end = clock.Now();
  out.setup_s = Seconds(fuzz_start - start);
  out.fuzz_s = Seconds(end - fuzz_start);

  for (const eof::BugReport& bug : out.result.bugs) {
    out.bugs.push_back(
        Bug{bug.catalog_id, bug.excerpt, bug.program_text, bug.snapshot_validation});
  }
  out.unparsable = CountUnparsable(plan.specs, out);
  out.result.corpus_programs.clear();  // checked; keeping them would inflate peak RSS
  if (trace != nullptr) {
    out.edges_seen = edges.size();
    trace->boards.Merge(merged);
    trace->corpus += out.result.corpus_size;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fleet campaign: an Orchestrator and one single-board FleetWorker in this process
// over the loopback transport, both journaling to files. The shards run one after
// another; each grant carries the merged state of the shards before it.

eof::Result<CampaignOutcome> RunFleet(const FuzzerConfig& config, int shards,
                                      const std::string& journal_dir, TraceState* trace) {
  namespace fleet = eof::fleet;
  CampaignOutcome out;
  out.config = config;
  SpanLog own_clock;
  SpanLog* log = trace != nullptr ? &trace->log : nullptr;
  SpanLog* clock = log != nullptr ? log : &own_clock;
  int64_t start = clock->Now();
  int root = log != nullptr ? log->Open(trace->fleet, -1) : -1;

  const std::string orch_path = journal_dir + "/orchestrator.jsonl";
  const std::string worker_path = journal_dir + "/worker.jsonl";
  // Same buffering as the sinks Options::metrics_out would open.
  ASSIGN_OR_RETURN(std::unique_ptr<eof::telemetry::FileEventSink> orch_file,
                   eof::telemetry::FileEventSink::Open(orch_path, 1));
  ASSIGN_OR_RETURN(std::unique_ptr<eof::telemetry::FileEventSink> worker_file,
                   eof::telemetry::FileEventSink::Open(worker_path));
  TimingSink orch_sink(std::move(orch_file), clock, log, root);
  TimingSink worker_sink(std::move(worker_file), clock, log, root);

  fleet::Orchestrator::Options orch_options;
  orch_options.sink = &orch_sink;
  ASSIGN_OR_RETURN(std::unique_ptr<fleet::Orchestrator> orchestrator,
                   fleet::Orchestrator::Create(std::move(orch_options)));
  fleet::FleetCampaignSpec spec;
  spec.campaign_id = "perfbench";
  spec.config = config;
  spec.shards = shards;
  RETURN_IF_ERROR(orchestrator->AddCampaign(spec));
  fleet::FleetWorker::Options worker_options;
  worker_options.name = "w0";
  worker_options.capacity = 1;
  worker_options.sink = &worker_sink;
  ASSIGN_OR_RETURN(std::unique_ptr<fleet::FleetWorker> worker,
                   fleet::FleetWorker::Create(std::move(worker_options)));

  auto [client, server] = fleet::LoopbackPair();
  std::thread handler([&] { orchestrator->ServeConnection(server.get()); });
  TimingTransport transport(client.get(), clock, log, root);
  eof::Status ran = worker->Run(&transport);
  if (!ran.ok()) {
    client->Close();  // unblocks the handler
  }
  handler.join();
  RETURN_IF_ERROR(ran);
  std::vector<fleet::FleetCampaignResult> results = orchestrator->Results();
  orch_sink.Flush();
  worker_sink.Flush();
  int64_t end = clock->Now();
  if (log != nullptr) {
    log->Close(root);
  }

  const std::vector<int64_t>& grants = transport.grant_ns();
  std::vector<int64_t> deploys = worker_sink.deploy_ns();
  if (results.size() != 1 || grants.size() != static_cast<size_t>(shards) ||
      deploys.size() != grants.size()) {
    return eof::InternalError("fleet: expected one grant and one deploy per shard");
  }
  int64_t setup_ns = grants[0] - start;
  for (size_t i = 0; i < grants.size(); ++i) {
    setup_ns += deploys[i] - grants[i];
  }
  out.setup_s = Seconds(setup_ns);
  if (log != nullptr) {
    for (size_t i = 0; i < grants.size(); ++i) {
      log->Add(trace->deploy, -1, grants[i], deploys[i]);
    }
  }
  out.fuzz_s = Seconds(end - start - setup_ns);

  out.result = results[0].result;
  out.batches = worker->batch_results();
  // A multi-batch campaign leaves its series to the journal; the campaign's curve
  // is the shards' curves laid end to end (each starts from the union before it).
  out.result.series.clear();
  for (size_t i = 0; i < out.batches.size(); ++i) {
    for (const eof::CampaignSample& sample : out.batches[i].series) {
      out.result.series.push_back(
          eof::CampaignSample{sample.time + i * config.budget, sample.coverage});
    }
  }
  out.result.elapsed = 0;
  for (const CampaignResult& batch : out.batches) {
    out.result.elapsed += batch.elapsed;
  }
  for (const fleet::BugWire& bug : results[0].bugs) {
    out.bugs.push_back(Bug{static_cast<int>(bug.catalog_id), bug.excerpt, bug.program_text,
                           bug.snapshot_validation});
  }
  ASSIGN_OR_RETURN(eof::CampaignPlan plan, eof::PrepareCampaign(config));
  out.unparsable = CountUnparsable(plan.specs, out);
  out.result.corpus_programs.clear();
  for (CampaignResult& batch : out.batches) {
    batch.corpus_programs.clear();
    batch.bugs.clear();
  }

  if (trace != nullptr) {
    for (const auto& [type, count] : transport.frames()) {
      trace->frames[type].frames += count.frames;
      trace->frames[type].bytes += count.bytes;
    }
    for (uint64_t bytes : transport.grant_bytes()) {
      trace->grant_bytes.push_back(bytes);
    }
    trace->journal_rows += orch_sink.rows() + worker_sink.rows();
    trace->journal_bytes +=
        std::filesystem::file_size(orch_path) + std::filesystem::file_size(worker_path);
    trace->fleet_execs += out.result.execs;
    trace->corpus += out.result.corpus_size;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rounds

struct Round {
  std::vector<CampaignOutcome> campaigns;
  double setup_s = 0;
  uint64_t execs = 0;
  std::string digest;
};

eof::Result<Round> RunRound(const WorkloadSpec& workload, uint64_t seed,
                            const std::string& journal_dir, TraceState* trace) {
  Round round;
  std::vector<const char*> kernels = workload.kernels;
  if (workload.probe != nullptr) {
    kernels.push_back(workload.probe);
  }
  for (size_t i = 0; i < kernels.size(); ++i) {
    const bool probe = i == workload.kernels.size();
    FuzzerConfig config = MakeConfig(workload, kernels[i], probe ? kProbeSeed : seed);
    eof::Result<CampaignOutcome> outcome =
        workload.shards > 0 ? RunFleet(config, workload.shards, journal_dir, trace)
                            : RunSolo(config, trace);
    if (!outcome.ok()) {
      return eof::Status(outcome.status().code(),
                         config.os_name + ": " + outcome.status().message());
    }
    round.setup_s += outcome->setup_s;
    round.execs += outcome->result.execs;
    if (trace != nullptr) {
      trace->execs += outcome->result.execs;
      trace->restores += outcome->result.restores;
      const eof::DebugPortStats& l = outcome->result.link;
      eof::DebugPortStats& s = trace->link;
      s.transactions += l.transactions;
      s.batches += l.batches;
      s.batched_ops += l.batched_ops;
      s.bytes_read += l.bytes_read;
      s.bytes_written += l.bytes_written;
      s.flash_bytes += l.flash_bytes;
      s.flash_skipped_bytes += l.flash_skipped_bytes;
      s.resets += l.resets;
      s.warm_restores += l.warm_restores;
    }
    outcome->probe = probe;
    round.campaigns.push_back(std::move(outcome).value());
  }
  round.digest = Digest(round.campaigns);
  return round;
}

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// All executions over all host seconds spent fuzzing (set-up excluded).
double ExecsPerHostSecond(const std::vector<Round>& rounds) {
  uint64_t execs = 0;
  double seconds = 0;
  for (const Round& round : rounds) {
    for (const CampaignOutcome& c : round.campaigns) {
      execs += c.result.execs;
      seconds += c.fuzz_s;
    }
  }
  return seconds > 0 ? static_cast<double>(execs) / seconds : 0;
}

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// The highest of p75/p90/p99/p99.9/p99.99 that leaves at least ten samples above
// it; 0 (no tail reported) below forty samples.
double TailLevel(size_t n) {
  if (n < 40) {
    return 0;
  }
  for (double level : {0.9999, 0.999, 0.99, 0.9}) {
    if (static_cast<double>(n) * (1 - level) >= 10) {
      return level;
    }
  }
  return 0.75;
}

double PerExec(double total, uint64_t execs) {
  return execs == 0 ? 0 : total / static_cast<double>(execs);
}

// ---------------------------------------------------------------------------
// JSON output

std::string Num(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[40];
  if (value == std::floor(value) && std::fabs(value) < 9e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + ("\"" + metrics[i].name + "\": {\"value\": ") +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Per-layer report (traced runs)

struct LayerRow {
  std::string name;
  size_t calls = 0;
  double host_us_per_exec = 0;
  double virtual_us_per_exec = 0;
  double share = 0;  // of the loop's (solo) or the fleet campaign's host time
  double median_us = 0;
  double tail_us = 0;
  double tail_level = 0;
};

struct LayerReport {
  std::vector<LayerRow> rows;
  double root_s = 0;        // summed loop (or fleet campaign) host time
  double unaccounted = 0;   // share of the loop no child span covers (solo only)
  std::map<std::string, std::vector<double>> samples_us;  // sorted per-call times
};

LayerReport BuildLayerReport(const TraceState& t, uint64_t execs) {
  LayerReport report;
  std::vector<SpanLog::Span> spans = t.log.spans();
  std::vector<std::string> names = t.log.names();
  std::vector<double> total_ns(names.size(), 0);
  std::vector<double> vus(names.size(), 0);
  double root_ns = 0;
  double children_ns = 0;
  for (const SpanLog::Span& span : spans) {
    double ns = static_cast<double>(span.end_ns - span.start_ns);
    if (span.name == t.loop || span.name == t.fleet) {
      root_ns += ns;
      continue;
    }
    total_ns[static_cast<size_t>(span.name)] += ns;
    vus[static_cast<size_t>(span.name)] += static_cast<double>(span.vus);
    report.samples_us[names[static_cast<size_t>(span.name)]].push_back(ns * 1e-3);
    if (span.parent >= 0 && spans[static_cast<size_t>(span.parent)].name == t.loop) {
      children_ns += ns;
    }
  }
  report.root_s = root_ns * 1e-9;
  bool solo = children_ns > 0;
  report.unaccounted = solo && root_ns > 0 ? 1 - children_ns / root_ns : 0;
  for (auto& [name, samples] : report.samples_us) {
    std::sort(samples.begin(), samples.end());
    size_t id = static_cast<size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
    LayerRow row;
    row.name = name;
    row.calls = samples.size();
    row.host_us_per_exec = PerExec(total_ns[id] * 1e-3, execs);
    row.virtual_us_per_exec = PerExec(vus[id], execs);
    bool setup = name == "spec.prepare" || name == "core.deploy";
    row.share = setup || root_ns == 0 ? 0 : total_ns[id] / root_ns;
    row.median_us = Percentile(samples, 0.5);
    row.tail_level = TailLevel(samples.size());
    row.tail_us = row.tail_level > 0 ? Percentile(samples, row.tail_level) : 0;
    report.rows.push_back(row);
  }
  return report;
}

// Per-layer metrics, named as in BENCHMARK.json. A layer that does not run on the
// workload reads 0.
std::vector<Metric> LayerMetrics(const TraceState& t, const LayerReport& report,
                                 double overhead) {
  std::vector<Metric> m;
  auto median = [&](const char* span) {
    auto it = report.samples_us.find(span);
    return it == report.samples_us.end() ? 0.0 : Percentile(it->second, 0.5);
  };
  auto tail = [&](const char* span) {
    auto it = report.samples_us.find(span);
    if (it == report.samples_us.end()) {
      return 0.0;
    }
    double level = TailLevel(it->second.size());
    return level > 0 ? Percentile(it->second, level) : 0.0;
  };
  auto timing = [&](const std::string& name, const char* span) {
    m.push_back({name, median(span), "us"});
    m.push_back({name + ".tail", tail(span), "us"});
  };
  const uint64_t execs = t.execs;
  const double kexecs = static_cast<double>(execs) / 1000.0;
  const eof::telemetry::MetricsSnapshot& b = t.boards;
  const eof::DebugPortStats& link = t.link;
  auto per_kexec = [&](double count) { return kexecs > 0 ? count / kexecs : 0.0; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto span_sum = [&](const char* name) {
    auto it = b.histograms.find(name);
    return it == b.histograms.end() ? 0.0 : static_cast<double>(it->second.sum);
  };
  size_t reboots = 0;
  size_t warm_calls = 0;
  if (auto it = report.samples_us.find("hw.reboot_exec"); it != report.samples_us.end()) {
    reboots = it->second.size();
  }
  if (auto it = report.samples_us.find("hw.warm_exec"); it != report.samples_us.end()) {
    warm_calls = it->second.size();
  }

  m.push_back({"spec.prepare_ms", median("spec.prepare") * 1e-3, "ms"});
  m.push_back({"core.deploy_ms", median("core.deploy") * 1e-3, "ms"});
  timing("fuzz.next_program_us", "fuzz.next_program");
  m.push_back({"fuzz.calls_per_program",
               ratio(static_cast<double>(t.calls), static_cast<double>(t.programs)),
               "calls"});
  timing("agent.encode_us", "agent.encode");
  m.push_back({"agent.mailbox_bytes",
               ratio(static_cast<double>(t.mailbox_bytes), static_cast<double>(t.programs)),
               "bytes"});
  timing("core.exec_plain_us", "core.exec_plain");
  m.push_back({"core.exec_continue_vus", PerExec(span_sum("span.exec_continue_us"), execs),
               "vus"});
  m.push_back({"core.drain_vus", PerExec(span_sum("span.coverage_drain_us"), execs), "vus"});
  m.push_back({"core.edges_drained_per_exec",
               PerExec(static_cast<double>(b.CounterValue("exec.edges_drained")), execs),
               "edges"});
  m.push_back({"core.overlapped_drains_per_kexec",
               per_kexec(static_cast<double>(b.CounterValue("exec.overlapped_drains"))),
               "1/kexec"});
  timing("hw.reboot_exec_us", "hw.reboot_exec");
  timing("hw.reflash_exec_us", "hw.reflash_exec");
  timing("hw.warm_exec_us", "hw.warm_exec");
  m.push_back({"core.recovery_vus",
               ratio(span_sum("span.watchdog_recovery_us"),
                     static_cast<double>(b.CounterValue("exec.restores"))),
               "vus"});
  m.push_back({"core.restores_per_kexec", per_kexec(static_cast<double>(t.restores)),
               "1/kexec"});
  m.push_back({"hw.reboots_per_kexec", per_kexec(static_cast<double>(reboots)), "1/kexec"});
  m.push_back(
      {"hw.warm_restores_per_kexec", per_kexec(static_cast<double>(warm_calls)), "1/kexec"});
  m.push_back({"hw.flash_bytes_per_restore",
               ratio(static_cast<double>(link.flash_bytes),
                     static_cast<double>(t.restores)),
               "bytes"});
  m.push_back({"hw.flash_skipped_bytes_per_restore",
               ratio(static_cast<double>(link.flash_skipped_bytes),
                     static_cast<double>(t.restores)),
               "bytes"});
  m.push_back({"hw.link_transactions_per_exec",
               PerExec(static_cast<double>(link.transactions), execs), "1/exec"});
  m.push_back({"hw.link_ops_per_batch",
               ratio(static_cast<double>(link.batched_ops), static_cast<double>(link.batches)),
               "ops"});
  m.push_back({"hw.link_bytes_per_exec",
               PerExec(static_cast<double>(link.bytes_read + link.bytes_written), execs),
               "bytes"});
  timing("common.local_merge_us", "common.local_merge");
  timing("core.on_outcome_us", "core.on_outcome");
  m.push_back({"core.validation_replay_ms", median("core.validation_replay") * 1e-3, "ms"});
  m.push_back({"core.validation_replays", static_cast<double>(t.validation_replays), "count"});
  m.push_back({"core.corpus_size", static_cast<double>(t.corpus), "count"});

  using eof::fleet::MsgType;
  auto frame_bytes = [&](MsgType type) {
    auto it = t.frames.find(type);
    return it == t.frames.end() ? 0.0 : static_cast<double>(it->second.bytes);
  };
  timing("fleet.sync_rtt_us", "fleet.sync_rtt");
  m.push_back({"fleet.sync_bytes_per_exec",
               PerExec(frame_bytes(MsgType::kSync) + frame_bytes(MsgType::kSyncAck),
                       t.fleet_execs),
               "bytes"});
  m.push_back({"fleet.lease_rtt_ms", median("fleet.lease_rtt") * 1e-3, "ms"});
  double grant_bytes = 0;
  for (uint64_t bytes : t.grant_bytes) {
    grant_bytes += static_cast<double>(bytes);
  }
  m.push_back({"fleet.grant_bytes",
               ratio(grant_bytes, static_cast<double>(t.grant_bytes.size())), "bytes"});
  timing("telemetry.emit_us", "telemetry.emit");
  m.push_back({"telemetry.journal_rows_per_kexec",
               t.fleet_execs == 0 ? 0.0
                                  : static_cast<double>(t.journal_rows) * 1000.0 /
                                        static_cast<double>(t.fleet_execs),
               "1/kexec"});
  m.push_back({"telemetry.journal_bytes_per_exec",
               PerExec(static_cast<double>(t.journal_bytes), t.fleet_execs), "bytes"});
  m.push_back({"trace.overhead_pct", overhead * 100, "%"});
  m.push_back({"trace.unaccounted_pct", report.unaccounted * 100, "%"});
  return m;
}

void PrintLayerTable(const std::string& workload, const LayerReport& report,
                     uint64_t execs) {
  std::fprintf(stderr, "\n%s: traced per-layer host and virtual time (%" PRIu64
                       " execs, %.3f s of %s host time)\n",
               workload.c_str(), execs, report.root_s,
               report.unaccounted > 0 ? "loop" : "campaign");
  std::fprintf(stderr, "  %-24s %9s %14s %14s %8s %11s %11s\n", "layer", "calls",
               "host us/exec", "virt us/exec", "share", "median us", "tail us");
  for (const LayerRow& row : report.rows) {
    char tail[32] = "-";
    if (row.tail_level > 0) {
      std::snprintf(tail, sizeof(tail), "%.1f@p%g", row.tail_us, row.tail_level * 100);
    }
    std::fprintf(stderr, "  %-24s %9zu %14.2f %14.1f %7.1f%% %11.1f %11s\n",
                 row.name.c_str(), row.calls, row.host_us_per_exec, row.virtual_us_per_exec,
                 row.share * 100, row.median_us, tail);
  }
  if (report.unaccounted > 0) {
    std::fprintf(stderr, "  %-24s %9s %14s %14s %7.1f%%\n", "(between spans)", "", "", "",
                 report.unaccounted * 100);
  }
}

// ---------------------------------------------------------------------------
// Checks

struct Checks {
  std::vector<std::pair<std::string, std::string>> failures;  // name, detail

  void Expect(bool ok, const std::string& name, const std::string& detail = "") {
    if (!ok) {
      failures.push_back({name, detail});
      std::fprintf(stderr, "check failed: %s %s\n", name.c_str(), detail.c_str());
    }
  }
};

void CheckCampaign(const CampaignOutcome& c, Checks* checks) {
  const CampaignResult& r = c.result;
  std::string who = c.config.os_name + " seed " + std::to_string(c.config.seed);
  bool monotone = !r.series.empty();
  for (size_t i = 1; i < r.series.size(); ++i) {
    monotone = monotone && r.series[i].coverage >= r.series[i - 1].coverage;
  }
  checks->Expect(monotone, "series_non_decreasing", who);
  checks->Expect(!r.series.empty() && r.series.back().coverage == r.final_coverage,
                 "series_ends_at_final_coverage", who);
  checks->Expect(c.unparsable == 0, "programs_parse",
                 who + ": " + std::to_string(c.unparsable) + " rejected");
  checks->Expect(r.execs > 0, "campaign_ran", who);
  if (!c.batches.empty()) {
    uint64_t batch_execs = 0;
    for (const CampaignResult& batch : c.batches) {
      batch_execs += batch.execs;
    }
    checks->Expect(batch_execs == r.execs, "fleet_execs_sum",
                   who + ": " + std::to_string(batch_execs) + " vs " +
                       std::to_string(r.execs));
    checks->Expect(c.batches.back().final_coverage == r.final_coverage,
                   "fleet_coverage_is_last_shard",
                   who + ": " + std::to_string(c.batches.back().final_coverage) + " vs " +
                       std::to_string(r.final_coverage));
  }
}

struct ReplayTally {
  uint64_t attempted = 0;  // every report
  uint64_t confirmed = 0;
  uint64_t probe_attempted = 0;  // the fault probe's reports: operations of the run
  uint64_t probe_failed = 0;
  // Reflash-mode reports of the --seed campaigns that a fresh board does not crash
  // on. Which ones fail depends on the seed, so they are listed in the details and
  // left out of attempted and failed; the probe shows the same fault on fixed inputs.
  uint64_t unconfirmed_unchecked = 0;
  // Reports the program's own cold-boot replay confirmed that a fresh board does not
  // crash on: a wrong output, which fails the run's checks.
  uint64_t unconfirmed_validated = 0;
};

// Independent replay of every reported bug on a freshly deployed board of the
// campaign's kernel (after all timing; boards are independent, so a few threads
// share the replays). A report is confirmed only if the cold board crashes, with
// the same catalog id when it was attributed.
ReplayTally ReplayBugs(std::vector<CampaignOutcome>* campaigns) {
  constexpr int kReplayThreads = 3;
  std::vector<std::pair<const CampaignOutcome*, Bug*>> work;
  for (CampaignOutcome& c : *campaigns) {
    for (Bug& bug : c.bugs) {
      work.push_back({&c, &bug});
    }
  }
  std::atomic<size_t> next(0);
  auto replay = [&] {
    for (size_t i = next++; i < work.size(); i = next++) {
      const FuzzerConfig& config = work[i].first->config;
      Bug& bug = *work[i].second;
      eof::Result<eof::ReplayOutcome> outcome =
          eof::ReplayReproducer(config.os_name, bug.program_text, config.board_name);
      bug.replay_confirmed = outcome.ok() && outcome->crashed &&
                             (bug.catalog_id == 0 || outcome->catalog_id == bug.catalog_id);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kReplayThreads; ++i) {
    threads.emplace_back(replay);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ReplayTally tally;
  for (const auto& [campaign, bug] : work) {
    ++tally.attempted;
    tally.confirmed += bug->replay_confirmed ? 1 : 0;
    if (campaign->probe) {
      ++tally.probe_attempted;
      tally.probe_failed += bug->replay_confirmed ? 0 : 1;
    } else if (!bug->replay_confirmed) {
      ++(bug->validation == "not_checked" ? tally.unconfirmed_unchecked
                                          : tally.unconfirmed_validated);
    }
  }
  return tally;
}

// Distinct catalog bugs per campaign among the confirmed reports, summed over
// campaigns. Unattributed reports (catalog id 0) are not catalog bugs.
uint64_t BugsFound(const std::vector<CampaignOutcome>& campaigns) {
  uint64_t found = 0;
  for (const CampaignOutcome& c : campaigns) {
    std::unordered_set<int> ids;
    for (const Bug& bug : c.bugs) {
      if (bug.replay_confirmed && bug.catalog_id != 0) {
        ids.insert(bug.catalog_id);
      }
    }
    found += ids.size();
  }
  return found;
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 && args->trace >= 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n");
    return 2;
  }
  const WorkloadSpec* workload = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  eof::Status registered = eof::RegisterAllOses();
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }
  const bool traced = args.trace == 1;
  // A traced run runs each round twice, so it takes half the rounds.
  const int rounds = std::max(
      1, static_cast<int>(std::lround(args.seconds / workload->round_seconds /
                                      (traced ? 2 : 1))));
  const std::string tag =
      args.workload + "-seed" + std::to_string(args.seed) + "-trace" + std::to_string(args.trace);
  const std::string journal_dir = args.out + "/journal-" + tag;
  std::filesystem::create_directories(journal_dir);

  Checks checks;
  TraceState trace;
  std::vector<Round> untraced_rounds;
  std::vector<Round> traced_rounds;
  for (int r = 0; r < rounds; ++r) {
    uint64_t seed = RoundSeed(args.seed, r);
    // Traced runs run every round both ways, alternating which goes first.
    for (int pass = 0; pass < (traced ? 2 : 1); ++pass) {
      bool this_traced = traced && (pass + r) % 2 == 0;
      eof::Result<Round> round =
          RunRound(*workload, seed, journal_dir, this_traced ? &trace : nullptr);
      if (!round.ok()) {
        std::fprintf(stderr, "campaign failed: %s\n", round.status().ToString().c_str());
        return 1;
      }
      (this_traced ? traced_rounds : untraced_rounds).push_back(std::move(round).value());
    }
  }
  const double peak_rss = PeakRssMiB();

  std::vector<CampaignOutcome> campaigns;
  for (const Round& round : untraced_rounds) {
    campaigns.insert(campaigns.end(), round.campaigns.begin(), round.campaigns.end());
  }
  for (const CampaignOutcome& c : campaigns) {
    CheckCampaign(c, &checks);
  }
  for (size_t i = 0; i < traced_rounds.size(); ++i) {
    checks.Expect(traced_rounds[i].digest == untraced_rounds[i].digest,
                  "traced_run_reproduces_untraced",
                  "round " + std::to_string(i) + ": " + traced_rounds[i].digest + " vs " +
                      untraced_rounds[i].digest);
    for (const CampaignOutcome& c : traced_rounds[i].campaigns) {
      if (workload->shards == 0) {
        checks.Expect(c.edges_seen == c.result.final_coverage,
                      "traced_edge_set_matches_final_coverage",
                      c.config.os_name + ": " + std::to_string(c.edges_seen) + " vs " +
                          std::to_string(c.result.final_coverage));
      }
    }
  }
  ReplayTally replays = ReplayBugs(&campaigns);
  checks.Expect(replays.unconfirmed_validated == 0, "validated_reports_reproduce",
                std::to_string(replays.unconfirmed_validated) + " did not crash a fresh board");
  // The probe runs on the same inputs every round, so every round must give the
  // same campaign and the same replay verdicts.
  const CampaignOutcome* first_probe = nullptr;
  for (const CampaignOutcome& c : campaigns) {
    if (!c.probe) {
      continue;
    }
    if (first_probe == nullptr) {
      first_probe = &c;
      continue;
    }
    bool same = VirtualRecord(c) == VirtualRecord(*first_probe);
    for (size_t i = 0; same && i < c.bugs.size(); ++i) {
      same = c.bugs[i].replay_confirmed == first_probe->bugs[i].replay_confirmed;
    }
    checks.Expect(same, "probe_repeats", c.config.os_name);
  }

  uint64_t execs = 0;
  double vus = 0;
  double coverage = 0;
  double auc = 0;
  std::vector<double> round_setup;
  std::string digest_text;
  for (const Round& round : untraced_rounds) {
    execs += round.execs;
    round_setup.push_back(round.setup_s);
    digest_text += round.digest;
  }
  for (const CampaignOutcome& c : campaigns) {
    vus += static_cast<double>(c.result.elapsed);
    coverage += static_cast<double>(c.result.final_coverage);
    double sum = 0;
    for (const eof::CampaignSample& sample : c.result.series) {
      sum += static_cast<double>(sample.coverage);
    }
    auc += c.result.series.empty() ? 0 : sum / static_cast<double>(c.result.series.size());
  }
  const std::string digest = Hex(eof::Fnv1a(digest_text));
  std::vector<Metric> end_to_end = {
      {"execs_per_host_s", ExecsPerHostSecond(untraced_rounds), "execs/s"},
      {"execs_per_vhour", vus > 0 ? static_cast<double>(execs) / (vus / 3.6e9) : 0,
       "execs/vh"},
      {"final_coverage", coverage, "edges"},
      {"coverage_auc", auc, "edges"},
      {"setup_s", Median(round_setup), "s"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
  for (const Metric& metric : end_to_end) {
    checks.Expect(metric.value > 0, "metric_positive", metric.name);
  }
  // A short run may rightly find no bug, so this one is not checked for being positive.
  end_to_end.push_back({"bugs_found", static_cast<double>(BugsFound(campaigns)), "bugs"});

  std::vector<Metric> per_layer;
  LayerReport report;
  if (traced) {
    double untraced_rate = end_to_end[0].value;
    double traced_rate = ExecsPerHostSecond(traced_rounds);
    double overhead = untraced_rate > 0 ? 1 - traced_rate / untraced_rate : 0;
    report = BuildLayerReport(trace, trace.execs);
    per_layer = LayerMetrics(trace, report, overhead);
    PrintLayerTable(args.workload, report, trace.execs);
    std::fprintf(stderr, "  tracing overhead: %.1f%% of untraced execs_per_host_s\n",
                 overhead * 100);
    if (workload->shards == 0) {
      // The loop's host time must be covered by the timed calls, so that no large
      // cost hides between spans.
      checks.Expect(report.unaccounted < 0.05, "spans_cover_loop",
                    std::to_string(report.unaccounted * 100) + "% between spans");
    }
    // Spans, written once the measuring is over.
    std::ofstream spans(args.out + "/spans-" + tag + ".tsv");
    std::vector<std::string> names = trace.log.names();
    spans << "name\tparent\tstart_ns\tend_ns\tvirtual_us\n";
    for (const SpanLog::Span& span : trace.log.spans()) {
      spans << names[static_cast<size_t>(span.name)] << '\t' << span.parent << '\t'
            << span.start_ns << '\t' << span.end_ns << '\t' << span.vus << '\n';
    }
  }

  const bool correct = checks.failures.empty();
  // One operation per campaign and per replay of a probe report. The failed ones
  // are the probe's reports that a fresh board does not crash on.
  uint64_t attempted = replays.probe_attempted;
  for (const std::vector<Round>* rounds : {&untraced_rounds, &traced_rounds}) {
    for (const Round& round : *rounds) {
      attempted += round.campaigns.size();
    }
  }
  const uint64_t failed = replays.probe_failed;

  // Details for the steadiness command and the reader.
  std::string details = "{\n  \"workload\": \"" + args.workload + "\",\n  \"seed\": " +
                        std::to_string(args.seed) + ",\n  \"trace\": " +
                        std::to_string(args.trace) + ",\n  \"rounds\": " +
                        std::to_string(rounds) + ",\n  \"digest\": \"" + digest +
                        "\",\n  \"correct\": " + (correct ? "true" : "false") +
                        ",\n  \"replays\": {\"attempted\": " + std::to_string(replays.attempted) +
                        ", \"confirmed\": " + std::to_string(replays.confirmed) +
                        ", \"probe_attempted\": " + std::to_string(replays.probe_attempted) +
                        ", \"probe_failed\": " + std::to_string(replays.probe_failed) +
                        ", \"unconfirmed_unchecked\": " +
                        std::to_string(replays.unconfirmed_unchecked) +
                        ", \"unconfirmed_validated\": " +
                        std::to_string(replays.unconfirmed_validated) + "},\n";
  details += "  \"check_failures\": [";
  for (size_t i = 0; i < checks.failures.size(); ++i) {
    details += (i ? ", " : "") + ("\"" + checks.failures[i].first + ": " +
                                  eof::telemetry::JsonEscape(checks.failures[i].second) + "\"");
  }
  details += "],\n  \"campaigns\": [\n";
  for (size_t i = 0; i < campaigns.size(); ++i) {
    const CampaignOutcome& c = campaigns[i];
    std::string bugs;
    for (const Bug& bug : c.bugs) {
      bugs += (bugs.empty() ? "\"" : ", \"") + std::to_string(bug.catalog_id) +
              (bug.replay_confirmed ? "\"" : " unconfirmed\"");
    }
    details += "    {\"os\": \"" + c.config.os_name + "\", \"probe\": " +
               (c.probe ? "true" : "false") + ", \"seed\": " +
               std::to_string(c.config.seed) + ", \"execs\": " +
               std::to_string(c.result.execs) + ", \"final_coverage\": " +
               std::to_string(c.result.final_coverage) + ", \"corpus\": " +
               std::to_string(c.result.corpus_size) + ", \"bugs\": [" + bugs +
               "], \"setup_s\": " + Num(c.setup_s) + ", \"fuzz_s\": " + Num(c.fuzz_s) +
               ", \"record\": \"" + Hex(eof::Fnv1a(VirtualRecord(c))) +
               "\"}" + (i + 1 < campaigns.size() ? ",\n" : "\n");
  }
  details += "  ],\n  \"metrics\": " + MetricsJson(end_to_end);
  if (traced) {
    details += ",\n  \"per_layer\": " + MetricsJson(per_layer) + ",\n  \"layers\": [\n";
    for (size_t i = 0; i < report.rows.size(); ++i) {
      const LayerRow& row = report.rows[i];
      details += "    {\"layer\": \"" + row.name + "\", \"calls\": " +
                 std::to_string(row.calls) + ", \"host_us_per_exec\": " +
                 Num(row.host_us_per_exec) + ", \"virtual_us_per_exec\": " +
                 Num(row.virtual_us_per_exec) + ", \"share\": " + Num(row.share) +
                 ", \"median_us\": " + Num(row.median_us) + ", \"tail_us\": " +
                 Num(row.tail_us) + ", \"tail_level\": " + Num(row.tail_level) + "}" +
                 (i + 1 < report.rows.size() ? ",\n" : "\n");
    }
    details += "  ],\n  \"loop_unaccounted\": " + Num(report.unaccounted);
  }
  details += "\n}\n";
  std::ofstream(args.out + "/" + tag + ".json") << details;

  std::fprintf(stderr,
               "%s seed %" PRIu64 ": %d round(s), digest %s, bugs reported %" PRIu64
               ", confirmed %" PRIu64 ", unconfirmed reflash-mode %" PRIu64
               " (probe %" PRIu64 " of %" PRIu64 ")\n",
               args.workload.c_str(), args.seed, rounds, digest.c_str(), replays.attempted,
               replays.confirmed, replays.unconfirmed_unchecked + replays.probe_failed,
               replays.probe_failed, replays.probe_attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(traced ? per_layer : end_to_end).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
