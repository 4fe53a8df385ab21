// perfbench_harness -- the measuring half of the cvewb benchmark.
//
// Each subcommand drives one layer through its public interface, times
// every call from outside with std::chrono::steady_clock, checks the
// outputs, and writes one JSON document of raw samples (to --out, or
// stdout).  run.py turns the samples into the named metrics; nothing here
// computes a percentile.
//
// Every flag is required: run.py is the only caller and passes each one.
// "P threads" below is the size of this process's affinity mask.
//
//   study   --seed N --seconds S --trace 0|1 --out FILE
//       The process's first study at threads=P, timed apart (the time
//       every `cvewb study` call pays), then repeated in-process
//       pipeline::run_study at full scale (at least kMinReps repetitions),
//       alternating a threads=P leg and a threads=1 leg on the same derived
//       seed.  The two results of every seed must encode to identical
//       bytes.  With --trace 1, each study carries an obs::Observability
//       whose spans and counters are emitted, and an untraced threads=P leg
//       per repetition gives the tracing overhead.
//   store-build --seed N --scale X --setups K --dir D --pools FILE --out FILE
//       Builds store::Store in D from two studies, K times (set-up; the
//       last build is kept), and writes the query pools drawn from the
//       studies to --pools.
//   store-query --seed N --seconds S --dir D --pools FILE --reopens R
//               --min-scan-blocks B --writes 0|1 --scale X --trace 0|1
//               --out FILE
//       Reopens the built store R times (timed) and sends a seeded
//       closed-loop stream of lookups and scans from one caller.  Sampled
//       index results are checked against QueryMode::kBrute (untimed).
//       With --writes 1, then ingest + checkpoint + compact of one more
//       study at scale X.
//   service-populate --seed N --dir D --tiers T --out FILE
//       Set-up for the service workload: ingests one study of the size the
//       load submits (and T tiny ones, one base tier each) into the store
//       directory the daemon will serve, and writes the store queries the
//       load will send.
//   service-load --port P --seed N --fresh 0|1 --submits K
//                --min-seconds S --spec FILE --out FILE
//       Load against a running cvewbd: a closed-loop submitter of K
//       studies (with --fresh 1 the first is a fresh seed, the rest repeat
//       the populated config), open-loop store_query on two connections and
//       ping on a fourth.
//   service-check --dir D --load FILE --out FILE
//       After the daemon has exited: replays every wire store_query
//       in-process (timing Store::query) and reruns every completed job's
//       study in-process; all digests must match the wire replies.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cache/key.h"
#include "cache/serialize.h"
#include "obs/observability.h"
#include "pipeline/study.h"
#include "store/store.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/sha256.h"

using namespace cvewb;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------- basics

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The threads a study uses on its parallel leg: the CPUs this process may
/// run on.
int host_threads() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  return CPU_COUNT(&mask);
}

/// A /proc/self/status field in kB (VmRSS, VmHWM).
std::int64_t status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) return std::stoll(line.substr(field.size() + 1));
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// Returns freed heap to the kernel and resets the process's VmHWM to its
/// current RSS, so a later VmHWM covers only what runs after this call.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

struct Args {
  std::map<std::string, std::string> values;

  const std::string& str(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::runtime_error("--" + key + " is required");
    return it->second;
  }
  double num(const std::string& key) const { return std::stod(str(key)); }
  std::uint64_t u64(const std::string& key) const { return std::stoull(str(key)); }
  bool flag(const std::string& key) const { return u64(key) != 0; }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc % 2 != 0) throw std::runtime_error("flags come in --key value pairs");
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + key);
    args.values[key.substr(2)] = argv[i + 1];
  }
  return args;
}

util::Json numbers(const std::vector<double>& values) {
  util::JsonArray out;
  out.reserve(values.size());
  for (const double v : values) out.emplace_back(v);
  return util::Json(std::move(out));
}

util::Json strings(const std::vector<std::string>& values) {
  util::JsonArray out;
  for (const auto& v : values) out.emplace_back(v);
  return util::Json(std::move(out));
}

void emit(const Args& args, const util::Json& doc) {
  const std::string& path = args.str("out");
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

util::Json read_json(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  auto doc = util::parse_json(text.str(), error);
  if (!doc) throw std::runtime_error("cannot parse " + path + ": " + error);
  return *doc;
}

std::string study_digest(const pipeline::StudyResult& result) {
  return util::sha256_hex(cache::encode_study_result(result));
}

pipeline::StudyConfig study_config(std::uint64_t seed, double scale, int threads) {
  pipeline::StudyConfig config;
  config.seed = seed;
  config.event_scale = scale;
  config.threads = threads;
  return config;
}

// Fixed load parameters (README.md, "Assumptions", gives the basis of each).
constexpr std::uint64_t kMinReps = 1;          // study repetitions per call, at least
constexpr std::uint64_t kMinLookups = 1000;    // store lookups per query process, at least
constexpr double kSubmitScale = 0.02;          // event_scale of each submitted study
constexpr std::chrono::milliseconds kThink{1000};  // submitter pause between jobs

// Stream ids for util::stream_seed: every derived seed names its purpose.
constexpr std::uint64_t kStudyStream = 11;
constexpr std::uint64_t kStoreBuildStream = 12;
constexpr std::uint64_t kStoreIngestStream = 13;
constexpr std::uint64_t kStoreQueryStream = 14;
constexpr std::uint64_t kServiceStream = 15;

// ------------------------------------------------------------ trace dump

util::Json counters_json(const obs::Observability& observability) {
  util::Json counters;
  for (const auto& [name, value] : observability.metrics.snapshot().counters) {
    counters.set(name, static_cast<std::int64_t>(value));
  }
  return counters;
}

/// Every span of one traced study plus the counters the registry holds.
util::Json trace_dump(const obs::Observability& observability, double wall_s) {
  util::JsonArray events;
  for (const obs::TraceEvent& e : observability.tracer.events()) {
    util::JsonArray row;
    row.emplace_back(e.name);
    row.emplace_back(static_cast<std::int64_t>(e.ts_us));
    row.emplace_back(static_cast<std::int64_t>(e.dur_us));
    row.emplace_back(static_cast<std::int64_t>(e.tid));
    events.emplace_back(std::move(row));
  }
  util::Json doc;
  doc.set("wall_s", wall_s);
  doc.set("events", util::Json(std::move(events)));
  doc.set("counters", counters_json(observability));
  return doc;
}

struct TimedStudy {
  double seconds = 0;
  pipeline::StudyResult result;
  util::Json trace;  // null unless traced
};

/// Whether two results of one process are identical, compared on the
/// canonical encoding study_digest() hashes: SHA-256 of the ~40 MB
/// encoding would cost about as much as a threads=4 study.
bool same_result(const pipeline::StudyResult& a, const pipeline::StudyResult& b) {
  return cache::encode_study_result(a) == cache::encode_study_result(b);
}

TimedStudy timed_study(pipeline::StudyConfig config, bool traced) {
  TimedStudy out;
  std::unique_ptr<obs::Observability> observability;
  if (traced) observability = std::make_unique<obs::Observability>();
  config.observability = observability.get();
  const auto start = Clock::now();
  out.result = pipeline::run_study(config);
  out.seconds = seconds_since(start);
  if (traced) out.trace = trace_dump(*observability, out.seconds);
  return out;
}

// ----------------------------------------------------------------- study

int cmd_study(const Args& args) {
  const std::uint64_t seed = args.u64("seed");
  const double budget = args.num("seconds");
  const bool traced = args.flag("trace");
  const int threads = host_threads();

  // The process's first study pays one-time set-up: it is reported on its
  // own and is not a sample of the steady state.
  TimedStudy first =
      timed_study(study_config(util::stream_seed(seed, kStudyStream, 999), 1.0, threads), traced);

  std::vector<double> par_s, serial_s, untraced_par_s;
  util::JsonArray par_traces, serial_traces;
  std::uint64_t mismatches = 0;
  const auto start = Clock::now();
  for (std::uint64_t rep = 0; rep < kMinReps || seconds_since(start) < budget; ++rep) {
    const std::uint64_t rep_seed = util::stream_seed(seed, kStudyStream, rep);
    // Alternate which leg runs first so slow drift in the host hits both.
    TimedStudy par, serial;
    if (rep % 2 == 0) {
      par = timed_study(study_config(rep_seed, 1.0, threads), traced);
      serial = timed_study(study_config(rep_seed, 1.0, 1), traced);
    } else {
      serial = timed_study(study_config(rep_seed, 1.0, 1), traced);
      par = timed_study(study_config(rep_seed, 1.0, threads), traced);
    }
    if (!same_result(par.result, serial.result)) {
      ++mismatches;
      std::cerr << "study: threads=" << threads << " and threads=1 results differ for seed "
                << rep_seed << "\n";
    }
    par_s.push_back(par.seconds);
    serial_s.push_back(serial.seconds);
    if (traced) {
      par_traces.push_back(std::move(par.trace));
      serial_traces.push_back(std::move(serial.trace));
      const TimedStudy plain = timed_study(study_config(rep_seed, 1.0, threads), false);
      if (!same_result(plain.result, par.result)) ++mismatches;
      untraced_par_s.push_back(plain.seconds);
    }
  }

  util::Json doc;
  doc.set("first_s", first.seconds);
  if (traced) doc.set("first_trace", std::move(first.trace));
  doc.set("par_s", numbers(par_s));
  doc.set("serial_s", numbers(serial_s));
  doc.set("digest_checks", static_cast<std::int64_t>(par_s.size()));
  doc.set("mismatches", static_cast<std::int64_t>(mismatches));
  if (traced) {
    doc.set("untraced_par_s", numbers(untraced_par_s));
    doc.set("par_traces", util::Json(std::move(par_traces)));
    doc.set("serial_traces", util::Json(std::move(serial_traces)));
  }
  emit(args, doc);
  return 0;
}

// ----------------------------------------------------------------- store

std::string make_run_key(std::uint64_t seed, double scale) {
  return cache::run_key(study_config(seed, scale, 1));
}

/// Predicate values drawn from the studies a store was built from.  Event
/// fields are kept per event, so a uniform pick is frequency-weighted: a
/// CVE or SID is picked as often as it occurs.
struct QueryPools {
  std::vector<std::string> top_cves;  // most frequent first
  std::vector<std::int32_t> top_sids;
  std::vector<std::string> ev_cve;
  std::vector<std::int32_t> ev_sid;  // non-zero sids only
  std::vector<std::uint32_t> ev_src;
  std::vector<std::int64_t> ev_time;
  std::vector<std::uint32_t> session_src;
  std::int64_t t_min = 0;
  std::int64_t t_max = 0;
};

/// Scans per block go to this many of the most frequent CVEs and SIDs.
/// Per-CVE event counts are fixed by the calibration, so these targets
/// have the same sizes for every seed.
constexpr std::size_t kTopTargets = 3;

template <typename T>
std::vector<T> most_frequent(const std::vector<T>& values, std::size_t n) {
  std::map<T, std::uint64_t> counts;
  for (const T& v : values) ++counts[v];
  std::vector<std::pair<std::uint64_t, T>> ranked;
  for (const auto& [v, c] : counts) ranked.emplace_back(c, v);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<T> out;
  for (std::size_t i = 0; i < ranked.size() && i < n; ++i) out.push_back(ranked[i].second);
  return out;
}

QueryPools make_pools(const std::vector<const pipeline::StudyResult*>& results) {
  QueryPools pools;
  pools.t_min = INT64_MAX;
  pools.t_max = INT64_MIN;
  for (const auto* result : results) {
    for (const auto& e : result->reconstruction.events) {
      pools.ev_cve.push_back(e.cve_id);
      pools.ev_src.push_back(e.src);
      pools.ev_time.push_back(e.time.unix_seconds());
      if (e.sid != 0) pools.ev_sid.push_back(e.sid);
    }
    for (const auto& s : result->traffic.sessions) {
      pools.session_src.push_back(s.src.value());
      pools.t_min = std::min(pools.t_min, s.open_time.unix_seconds());
      pools.t_max = std::max(pools.t_max, s.open_time.unix_seconds());
    }
  }
  if (pools.ev_cve.empty() || pools.ev_sid.empty() || pools.session_src.empty()) {
    throw std::runtime_error("query pools: the studies produced no events");
  }
  pools.top_cves = most_frequent(pools.ev_cve, kTopTargets);
  pools.top_sids = most_frequent(pools.ev_sid, kTopTargets);
  return pools;
}

std::size_t pick_index(util::Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.next() % size);
}

// Query classes.  Lookups have small results; each class is an equal
// share of them, in blocks of one of each (see next_lookup_class), so every
// run sends the same mix and store.query_us.* attributes the time per plan
// shape.  Scans return a CVE's or a SID's whole event history, a week of
// events, or a predicate no index narrows (the planner's brute shape); they
// also come in blocks (see scan_block), so that every run scans the same
// mix of history sizes.  The top three CVEs and top three SIDs have
// pairwise equal event counts, so the middle of a sorted scan block is one
// of two scans of equal size.
enum QueryClass : int {
  kLookupSrc = 0,    // sessions of one source address
  kLookupWindow,     // one minute of events
  kLookupCveHour,    // one CVE's events in one hour
  kLookupSrcCve,     // one source's events for one CVE
  kLookupEmpty,      // an unknown CVE
  kScanCve,          // every event of a CVE
  kScanSid,          // every event of a Log4Shell variant sid
  kScanWeek,         // a week of events
  kScanUnselective,  // every sid-0 session (brute force)
  kQueryClassCount
};
constexpr int kLookupClasses = kScanCve;
constexpr const char* kClassNames[] = {"lookup_src",   "lookup_window", "lookup_cve_hour",
                                       "lookup_src_cve", "lookup_empty", "scan_cve",
                                       "scan_sid",     "scan_week",     "scan_unselective"};
bool is_scan(int cls) { return cls >= kScanCve; }

template <typename T>
void shuffle(std::vector<T>& items, util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[pick_index(rng, i)]);
}

/// The next lookup class: lookups come in blocks of one of each class in a
/// seeded order, so each class is an exact share of every run.
int next_lookup_class(util::Rng& rng, std::vector<int>& block) {
  if (block.empty()) {
    for (int cls = 0; cls < kLookupClasses; ++cls) block.push_back(cls);
    shuffle(block, rng);
  }
  const int cls = block.back();
  block.pop_back();
  return cls;
}

store::Query make_query(int cls, util::Rng& rng, const QueryPools& pools) {
  store::Query q;
  q.table = store::Table::kEvents;
  q.limit = 64;
  const std::size_t e = pick_index(rng, pools.ev_cve.size());
  switch (cls) {
    case kLookupSrc:
      q.table = store::Table::kSessions;
      q.src = pools.session_src[pick_index(rng, pools.session_src.size())];
      break;
    case kLookupWindow:
      q.time_begin = pools.ev_time[e];
      q.time_end = *q.time_begin + 60;
      break;
    case kLookupCveHour:
      q.cve = pools.ev_cve[e];
      q.time_begin = pools.ev_time[e] - pools.ev_time[e] % 3600;
      q.time_end = *q.time_begin + 3600;
      break;
    case kLookupSrcCve:
      q.src = pools.ev_src[e];
      q.cve = pools.ev_cve[e];
      break;
    case kLookupEmpty:
      q.cve = "CVE-1999-" + std::to_string(1000 + rng.next() % 9000);
      break;
    default:
      throw std::logic_error("make_query: scans come from scan_block");
  }
  return q;
}

/// One block of scans in a seeded order: the history of each of the most
/// frequent CVEs and SIDs, one week in each half of the study period, and
/// one brute-force scan over every sid-0 session.
std::vector<std::pair<int, store::Query>> scan_block(util::Rng& rng, const QueryPools& pools) {
  std::vector<std::pair<int, store::Query>> block;
  const auto add = [&block](int cls, store::Query q) {
    q.limit = 64;
    block.emplace_back(cls, std::move(q));
  };
  for (const auto& cve : pools.top_cves) {
    store::Query q;
    q.table = store::Table::kEvents;
    q.cve = cve;
    add(kScanCve, q);
  }
  for (const std::int32_t sid : pools.top_sids) {
    store::Query q;
    q.table = store::Table::kEvents;
    q.sid = sid;
    add(kScanSid, q);
  }
  const std::int64_t half = (pools.t_max - pools.t_min) / 2;
  for (int i = 0; i < 2; ++i) {
    store::Query q;
    q.table = store::Table::kEvents;
    q.time_begin = pools.t_min + i * half +
                   static_cast<std::int64_t>(rng.uniform() * (half - 7 * 86400));
    q.time_end = *q.time_begin + 7 * 86400;
    add(kScanWeek, q);
  }
  store::Query brute;
  brute.table = store::Table::kSessions;
  brute.sid = 0;
  add(kScanUnselective, brute);
  shuffle(block, rng);
  return block;
}

util::Json query_json(const store::Query& q) {
  util::Json doc;
  doc.set("table", q.table == store::Table::kSessions ? "sessions" : "events");
  if (q.cve) doc.set("cve", *q.cve);
  if (q.run) doc.set("run", *q.run);
  if (q.time_begin) doc.set("begin", *q.time_begin);
  if (q.time_end) doc.set("end", *q.time_end);
  if (q.src) doc.set("src", static_cast<std::int64_t>(*q.src));
  if (q.sid) doc.set("sid", static_cast<std::int64_t>(*q.sid));
  doc.set("limit", static_cast<std::int64_t>(q.limit));
  return doc;
}

store::Query query_from_json(const util::Json& doc) {
  store::Query q;
  q.table = doc.find("table")->as_string() == "sessions" ? store::Table::kSessions
                                                         : store::Table::kEvents;
  if (const auto* v = doc.find("cve")) q.cve = v->as_string();
  if (const auto* v = doc.find("run")) q.run = v->as_string();
  if (const auto* v = doc.find("begin")) q.time_begin = v->as_int64();
  if (const auto* v = doc.find("end")) q.time_end = v->as_int64();
  if (const auto* v = doc.find("src")) q.src = static_cast<std::uint32_t>(v->as_int64());
  if (const auto* v = doc.find("sid")) q.sid = static_cast<std::int32_t>(v->as_int64());
  q.limit = static_cast<std::uint64_t>(doc.find("limit")->as_int64());
  return q;
}

std::unique_ptr<store::Store> open_store(const std::filesystem::path& dir,
                                         obs::Observability* observability) {
  store::StoreOptions options;
  options.observability = observability;
  store::StoreError error;
  auto handle = store::Store::open(dir, options, &error);
  if (!handle) throw std::runtime_error("store open failed: " + error.detail);
  return handle;
}

/// Query pools as a file, so the set-up's studies need not be rerun by each
/// query process.  Events and sessions are uniform samples of at most
/// kPoolSample each (a uniform sample of events keeps the frequency
/// weighting); the scan targets are taken from the full studies.
constexpr std::size_t kPoolSample = 20000;

void write_pools(const QueryPools& pools, std::uint64_t seed, const std::string& path) {
  util::Rng rng(util::stream_seed(seed, kStoreQueryStream, 1));
  const auto sample = [&rng](std::size_t size) {
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < std::min(size, kPoolSample); ++i) {
      picks.push_back(size <= kPoolSample ? i : pick_index(rng, size));
    }
    return picks;
  };
  util::JsonArray events, sessions, top_cves, top_sids;
  for (const std::size_t e : sample(pools.ev_cve.size())) {
    util::JsonArray row;
    row.emplace_back(pools.ev_cve[e]);
    row.emplace_back(static_cast<std::int64_t>(pools.ev_src[e]));
    row.emplace_back(pools.ev_time[e]);
    events.emplace_back(std::move(row));
  }
  for (const std::size_t i : sample(pools.session_src.size())) {
    sessions.emplace_back(static_cast<std::int64_t>(pools.session_src[i]));
  }
  for (const auto& cve : pools.top_cves) top_cves.emplace_back(cve);
  for (const std::int32_t sid : pools.top_sids) {
    top_sids.emplace_back(static_cast<std::int64_t>(sid));
  }
  util::Json doc;
  doc.set("events", util::Json(std::move(events)));
  doc.set("session_src", util::Json(std::move(sessions)));
  doc.set("top_cves", util::Json(std::move(top_cves)));
  doc.set("top_sids", util::Json(std::move(top_sids)));
  doc.set("t_min", pools.t_min);
  doc.set("t_max", pools.t_max);
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

QueryPools read_pools(const std::string& path) {
  const util::Json doc = read_json(path);
  QueryPools pools;
  for (const auto& row : doc.find("events")->as_array()) {
    const util::JsonArray& e = row.as_array();
    pools.ev_cve.push_back(e[0].as_string());
    pools.ev_src.push_back(static_cast<std::uint32_t>(e[1].as_int64()));
    pools.ev_time.push_back(e[2].as_int64());
  }
  for (const auto& v : doc.find("session_src")->as_array()) {
    pools.session_src.push_back(static_cast<std::uint32_t>(v.as_int64()));
  }
  for (const auto& v : doc.find("top_cves")->as_array()) pools.top_cves.push_back(v.as_string());
  for (const auto& v : doc.find("top_sids")->as_array()) {
    pools.top_sids.push_back(static_cast<std::int32_t>(v.as_int64()));
  }
  pools.t_min = doc.find("t_min")->as_int64();
  pools.t_max = doc.find("t_max")->as_int64();
  return pools;
}

int cmd_store_build(const Args& args) {
  const std::uint64_t seed = args.u64("seed");
  const double scale = args.num("scale");
  const std::uint64_t setups = args.u64("setups");
  const std::filesystem::path dir = args.str("dir");
  const int threads = host_threads();

  // Set-up, repeated: two studies, ingest both, checkpoint, close, reopen.
  // Every repetition does identical work in a fresh directory; the last
  // one's store is left for store-query.  Each build's ingest + checkpoint
  // is also a write-throughput sample.
  const std::uint64_t seed_a = util::stream_seed(seed, kStoreBuildStream, 0);
  const std::uint64_t seed_b = util::stream_seed(seed, kStoreBuildStream, 1);
  std::vector<double> setup_s, write_rows, write_s;
  std::unique_ptr<pipeline::StudyResult> run_a, run_b;
  for (std::uint64_t k = 0; k < setups; ++k) {
    std::filesystem::remove_all(dir);
    run_a.reset();
    run_b.reset();
    const auto start = Clock::now();
    run_a = std::make_unique<pipeline::StudyResult>(
        pipeline::run_study(study_config(seed_a, scale, threads)));
    run_b = std::make_unique<pipeline::StudyResult>(
        pipeline::run_study(study_config(seed_b, scale, threads)));
    {
      auto handle = open_store(dir, nullptr);
      const auto write_start = Clock::now();
      if (!handle->ingest(*run_a, make_run_key(seed_a, scale)) ||
          !handle->ingest(*run_b, make_run_key(seed_b, scale)) || !handle->checkpoint()) {
        throw std::runtime_error("store set-up: ingest/checkpoint failed");
      }
      write_s.push_back(seconds_since(write_start));
      write_rows.push_back(static_cast<double>(handle->stats().session_rows +
                                               handle->stats().event_rows));
    }
    open_store(dir, nullptr);
    setup_s.push_back(seconds_since(start));
  }
  write_pools(make_pools({run_a.get(), run_b.get()}), seed, args.str("pools"));

  util::Json doc;
  doc.set("setup_s", numbers(setup_s));
  doc.set("write_s", numbers(write_s));
  doc.set("write_rows", numbers(write_rows));
  emit(args, doc);
  return 0;
}

int cmd_store_query(const Args& args) {
  const std::uint64_t seed = args.u64("seed");
  const double budget = args.num("seconds");
  const std::uint64_t reopens = args.u64("reopens");
  const std::uint64_t min_scan_blocks = args.u64("min-scan-blocks");
  const bool writes = args.flag("writes");
  const bool traced = args.flag("trace");
  const std::filesystem::path dir = args.str("dir");
  std::unique_ptr<obs::Observability> observability;
  if (traced) observability = std::make_unique<obs::Observability>();

  // This process only opens the built store and queries it, so the
  // high-water mark after the loop, less the RSS before the open, is the
  // memory the open store and its query loop take.
  const QueryPools pools = read_pools(args.str("pools"));
  reset_peak_rss();
  const std::int64_t rss_before_open_kb = status_kb("VmRSS");
  std::unique_ptr<store::Store> handle;
  std::vector<double> reopen_s;
  while (reopen_s.size() < std::max<std::uint64_t>(reopens, 1)) {
    handle.reset();
    const auto reopen_start = Clock::now();
    handle = open_store(dir, observability.get());
    reopen_s.push_back(seconds_since(reopen_start));
  }

  // The closed loop: one caller, each query sent when the previous one
  // returned.  One query in 200 is the next scan of the current block,
  // which puts about two thirds of the loop's time into scans.
  util::Rng rng(util::stream_seed(seed, kStoreQueryStream));
  std::vector<double> lat_us, plan_us, cls_of, matched, scanned, postings;
  std::vector<std::string> plans;
  std::vector<store::Query> checks;
  std::vector<store::QueryResult> check_results;
  std::uint64_t lookups = 0, scans = 0, blocks = 0;
  std::vector<std::pair<int, store::Query>> block;
  std::vector<int> lookup_block;
  const auto loop_start = Clock::now();
  while (seconds_since(loop_start) < budget || lookups < kMinLookups ||
         blocks < min_scan_blocks || !block.empty()) {
    int cls = 0;
    store::Query q;
    if (rng.uniform() < 0.005) {
      if (block.empty()) {
        block = scan_block(rng, pools);
        ++blocks;
      }
      std::tie(cls, q) = std::move(block.back());
      block.pop_back();
    } else {
      cls = next_lookup_class(rng, lookup_block);
      q = make_query(cls, rng, pools);
    }
    if (traced) {
      const auto plan_start = Clock::now();
      const store::PlanReport report = handle->plan(q);
      plan_us.push_back(seconds_since(plan_start) * 1e6);
      if (report.plan.empty()) throw std::runtime_error("store: empty plan label");
    }
    const auto start = Clock::now();
    store::QueryResult result = handle->query(q);
    lat_us.push_back(seconds_since(start) * 1e6);
    cls_of.push_back(cls);
    matched.push_back(static_cast<double>(result.matched));
    scanned.push_back(static_cast<double>(result.scanned));
    postings.push_back(static_cast<double>(result.postings_examined));
    plans.push_back(result.plan);
    // Every 4000th lookup and the first scan go to the brute-force check
    // (a full scan each).
    const std::uint64_t nth = is_scan(cls) ? scans++ : lookups++;
    if (nth % (is_scan(cls) ? UINT64_MAX : 4000) == 0) {
      result.rows.clear();
      checks.push_back(q);
      check_results.push_back(std::move(result));
    }
  }
  const std::int64_t peak_rss_kb = status_kb("VmHWM");

  // Output check, untimed: the planner's shape and the linear scan agree.
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const store::QueryResult brute = handle->query(checks[i], store::QueryMode::kBrute);
    if (brute.digest_hex != check_results[i].digest_hex ||
        brute.matched != check_results[i].matched) {
      ++mismatches;
      std::cerr << "store: index/brute mismatch for " << query_json(checks[i]).dump() << "\n";
    }
  }

  util::Json doc;
  doc.set("reopen_s", numbers(reopen_s));
  doc.set("classes", strings(std::vector<std::string>(std::begin(kClassNames),
                                                      std::end(kClassNames))));
  doc.set("lat_us", numbers(lat_us));
  doc.set("cls", numbers(cls_of));
  doc.set("matched", numbers(matched));
  doc.set("scanned", numbers(scanned));
  doc.set("postings", numbers(postings));
  doc.set("plans", strings(plans));
  if (traced) doc.set("plan_us", numbers(plan_us));
  doc.set("peak_rss_kb", peak_rss_kb);
  doc.set("rss_before_open_kb", rss_before_open_kb);

  std::uint64_t brute_checks = checks.size();
  if (writes) {
    // Writes: ingest + checkpoint of one more study, then compact.  The
    // study runs before the clock starts.
    const double scale = args.num("scale");
    const std::uint64_t extra_seed = util::stream_seed(seed, kStoreIngestStream);
    const std::string extra_key = make_run_key(extra_seed, scale);
    const pipeline::StudyResult extra =
        pipeline::run_study(study_config(extra_seed, scale, host_threads()));
    const double extra_rows =
        static_cast<double>(extra.traffic.sessions.size() + extra.reconstruction.events.size());
    const store::StoreStats before = handle->stats();
    auto start = Clock::now();
    if (!handle->ingest(extra, extra_key)) throw std::runtime_error("store: ingest failed");
    const double ingest_s = seconds_since(start);
    start = Clock::now();
    if (!handle->checkpoint()) throw std::runtime_error("store: checkpoint failed");
    const double checkpoint_s = seconds_since(start);
    const std::uint64_t tiers_before_compact = handle->stats().base_segments;
    start = Clock::now();
    if (!handle->compact()) throw std::runtime_error("store: compact failed");
    const double compact_s = seconds_since(start);
    const store::StoreStats after = handle->stats();
    if (after.base_segments != 1 || after.runs != before.runs + 1 ||
        after.event_rows + after.session_rows !=
            before.event_rows + before.session_rows + static_cast<std::uint64_t>(extra_rows)) {
      ++mismatches;
      std::cerr << "store: unexpected tier/run/row counts after compact\n";
    }
    // The new run must answer exactly as a scan of the study in memory.
    for (int i = 0; i < 4; ++i) {
      store::Query q = make_query(i % 2 == 0 ? kLookupCveHour : kLookupSrcCve, rng, pools);
      q.run = extra_key;
      if (handle->query(q).digest_hex != store::brute_force_study(extra, extra_key, q).digest_hex) {
        ++mismatches;
        std::cerr << "store: ingested run disagrees with brute_force_study\n";
      }
    }
    brute_checks += 4;
    doc.set("ingest_s", ingest_s);
    doc.set("checkpoint_s", checkpoint_s);
    doc.set("ingest_rows", extra_rows);
    doc.set("compact_s", compact_s);
    doc.set("tiers_before_compact", static_cast<std::int64_t>(tiers_before_compact));
    doc.set("snapshot_bytes", static_cast<std::int64_t>(after.snapshot_bytes));
    doc.set("stored_rows", static_cast<std::int64_t>(after.session_rows + after.event_rows));
  }
  doc.set("brute_checks", static_cast<std::int64_t>(brute_checks));
  doc.set("mismatches", static_cast<std::int64_t>(mismatches));
  if (traced) doc.set("counters", counters_json(*observability));
  handle.reset();
  emit(args, doc);
  return 0;
}

// --------------------------------------------------------------- service

int cmd_service_populate(const Args& args) {
  // The populated run is the config the set-up and the repeat submits
  // send, so the daemon's ingest of it is a no-op.  Seeds sent on the wire
  // are kept to 31 bits: it rejects negative int64s.
  const std::uint64_t seed =
      util::stream_seed(args.u64("seed"), kServiceStream) & 0x7fff'ffffULL;
  const double scale = kSubmitScale;
  const std::uint64_t tiers = args.u64("tiers");
  const std::filesystem::path dir = args.str("dir");
  const int threads = host_threads();
  const pipeline::StudyResult result = pipeline::run_study(study_config(seed, scale, threads));
  const std::string key = make_run_key(seed, scale);
  {
    auto handle = open_store(dir, nullptr);
    if (!handle->ingest(result, key) || !handle->checkpoint()) {
      throw std::runtime_error("service-populate: ingest/checkpoint failed");
    }
    // Extra base tiers, each one tiny study (no background traffic), so
    // the daemon's compaction threshold is reached early in the load.
    for (std::uint64_t i = 0; i < tiers; ++i) {
      pipeline::StudyConfig tiny =
          study_config(util::stream_seed(seed, kServiceStream, 100 + i), 0.005, threads);
      tiny.background_per_day = 0;
      tiny.credstuff_per_day = 0;
      if (!handle->ingest(pipeline::run_study(tiny), cache::run_key(tiny)) ||
          !handle->checkpoint()) {
        throw std::runtime_error("service-populate: tier ingest/checkpoint failed");
      }
    }
  }
  // The service's store queries: lookups over the populated run, each
  // restricted to it, so later ingests by the daemon never change an
  // answer and the post-shutdown replay sees what the daemon saw.
  const QueryPools pools = make_pools({&result});
  util::Rng rng(util::stream_seed(seed, kServiceStream, 1));
  util::JsonArray queries;
  std::vector<int> lookup_block;
  for (int i = 0; i < 100 * kLookupClasses; ++i) {
    store::Query q = make_query(next_lookup_class(rng, lookup_block), rng, pools);
    q.run = key;
    q.limit = 16;
    queries.push_back(query_json(q));
  }
  util::Json doc;
  doc.set("run", key);
  doc.set("populated_seed", static_cast<std::int64_t>(seed));
  doc.set("submit_scale", kSubmitScale);
  doc.set("queries", util::Json(std::move(queries)));
  emit(args, doc);
  return 0;
}

/// One blocking newline-delimited JSON connection to cvewbd.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : port_(port) { reconnect(); }
  ~Connection() { close_fd(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one frame and wait for its reply; nullopt on error or timeout
  /// (the connection is then re-established for the next call).
  std::optional<util::Json> call(const util::Json& request) {
    const std::string frame = request.dump() + "\n";
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return fail();
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        auto reply = util::parse_json(line);
        if (!reply) return fail();
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return fail();
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  std::optional<util::Json> fail() {
    reconnect();
    return std::nullopt;
  }
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  void reconnect() {
    close_fd();
    buffer_.clear();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("connect() to cvewbd failed");
    }
  }

  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

bool reply_ok(const std::optional<util::Json>& reply) {
  if (!reply) return false;
  const util::Json* ok = reply->find("ok");
  return ok != nullptr && ok->type() == util::Json::Type::kBool && ok->as_bool();
}

/// Offered rates: store_query on each of two connections, ping on one.
constexpr double kQueryRate = 200;
constexpr double kPingRate = 400;

/// Open-loop sender on one connection: request k is due at start + k/rate
/// and timed from its due time, so a stall is charged to every request it
/// delays.  Sends until `done` is set and `min_end` has passed (or the
/// deadline passes).  -1 marks a failed request (error reply or timeout).
struct OpenLoopLog {
  std::vector<double> lat_ms;
  std::vector<double> late_ms;
  std::vector<std::string> digests;
  std::vector<std::size_t> spec_index;
};

template <typename MakeRequest>
OpenLoopLog open_loop(std::uint16_t port, double rate, Clock::time_point start,
                      Clock::time_point min_end, Clock::time_point deadline,
                      const std::atomic<bool>& done, MakeRequest make_request) {
  OpenLoopLog log;
  Connection conn(port);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  for (std::uint64_t k = 0;; ++k) {
    const Clock::time_point due = start + period * static_cast<std::int64_t>(k);
    if (due >= deadline || (due >= min_end && due > Clock::now() && done.load())) break;
    std::size_t spec = 0;
    const util::Json request = make_request(k, spec);
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    const auto reply = conn.call(request);
    const auto replied = Clock::now();
    log.late_ms.push_back(std::chrono::duration<double, std::milli>(sent - due).count());
    log.spec_index.push_back(spec);
    if (reply_ok(reply)) {
      log.lat_ms.push_back(std::chrono::duration<double, std::milli>(replied - due).count());
      const util::Json* digest = reply->find("digest");
      log.digests.push_back(digest != nullptr ? digest->as_string() : "");
    } else {
      log.lat_ms.push_back(-1);
      log.digests.push_back("");
    }
  }
  return log;
}

/// Closed-loop submitter: submit one study, poll it to completion every
/// 2 ms, think kThink, then submit the next.  With `fresh`, the first
/// submit is a fresh seed, ingested and checkpointed by the daemon (a base
/// tier, and a compaction at 8 tiers); every other submit repeats an
/// already-populated (seed, scale) -- a stage-cache hit and a no-op store
/// ingest.  Store writes block store_query on the event loop, so the fresh
/// share sets how much of the load runs beside a write.  -1 marks a
/// refused, failed or timed-out submit.
struct SubmitLog {
  std::vector<double> latency_s;
  util::JsonArray jobs;
};

SubmitLog closed_loop_submits(std::uint16_t port, std::uint64_t seed, bool fresh,
                              std::uint64_t count, std::uint64_t populated_seed,
                              Clock::time_point start) {
  SubmitLog log;
  Connection conn(port);
  std::this_thread::sleep_until(start);
  for (std::uint64_t i = 0; i < count; ++i) {
    const bool repeat = !(fresh && i == 0);
    // Fresh seeds are kept to 31 bits: the wire rejects negative int64s.
    const std::uint64_t job_seed =
        repeat ? populated_seed
               : util::stream_seed(seed, kServiceStream, 1000) & 0x7fff'ffffULL;
    util::Json request;
    request.set("op", "submit");
    request.set("seed", static_cast<std::int64_t>(job_seed));
    request.set("scale", kSubmitScale);
    request.set("threads", 1);
    const auto sent = Clock::now();
    const auto reply = conn.call(request);
    util::Json job;
    job.set("seed", static_cast<std::int64_t>(job_seed));
    job.set("repeat", repeat);
    std::string state = "rejected";
    if (!reply) {
      state = "lost";
    } else if (!reply_ok(reply)) {
      const util::Json* error = reply->find("error");
      job.set("error", error != nullptr ? error->dump() : reply->dump());
    } else {
      util::Json poll;
      poll.set("op", "query");
      poll.set("job", reply->find("job")->as_string());
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const auto status = conn.call(poll);
        if (!reply_ok(status)) {
          state = "lost";
          break;
        }
        state = status->find("state")->as_string();
        if (state == "queued" || state == "running") {
          if (seconds_since(sent) > 60) {
            state = "timeout";
            break;
          }
          continue;
        }
        if (state == "complete") {
          job.set("digest", status->find("digest")->as_string());
          job.set("wait_us", status->find("wait_us")->as_int64());
          job.set("run_us", status->find("run_us")->as_int64());
        }
        break;
      }
    }
    const double latency = seconds_since(sent);
    job.set("state", state);
    log.latency_s.push_back(state == "complete" ? latency : -1);
    log.jobs.push_back(std::move(job));
    std::this_thread::sleep_for(kThink);
  }
  return log;
}

int cmd_service_load(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.u64("port"));
  const std::uint64_t seed = args.u64("seed");
  const bool fresh = args.flag("fresh");
  const std::uint64_t submits_wanted = args.u64("submits");
  const double min_seconds = args.num("min-seconds");
  const util::Json spec = read_json(args.str("spec"));
  // Senders wake at their due times without the default 50 us timer
  // slack, which would otherwise be charged to every request.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const util::JsonArray& queries = spec.find("queries")->as_array();
  const auto populated_seed = static_cast<std::uint64_t>(spec.find("populated_seed")->as_int64());

  // The open-loop senders run until the submitter's last job is done, and
  // for at least --min-seconds.
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto min_end = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(min_seconds));
  const auto deadline = start + std::chrono::seconds(120);
  std::atomic<bool> done{false};

  // Four connections, one thread each; an exception in any of them is
  // carried out and rethrown after every thread has joined.
  OpenLoopLog query_logs[2], ping_log;
  SubmitLog submits;
  std::string errors[4];
  const auto guarded = [&errors, &done](int slot, auto body) {
    return [&errors, &done, slot, body] {
      try {
        body();
      } catch (const std::exception& e) {
        errors[slot] = e.what();
        done = true;
      }
    };
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back(guarded(c, [&, c] {
      const auto query = [&](std::uint64_t k, std::size_t& i) {
        i = static_cast<std::size_t>((k * 2 + static_cast<std::uint64_t>(c)) % queries.size());
        util::Json request = queries[i];
        request.set("op", "store_query");
        return request;
      };
      query_logs[c] = open_loop(port, kQueryRate, start, min_end, deadline, done, query);
    }));
  }
  threads.emplace_back(guarded(2, [&] {
    const auto ping = [](std::uint64_t, std::size_t&) {
      util::Json request;
      request.set("op", "ping");
      return request;
    };
    ping_log = open_loop(port, kPingRate, start, min_end, deadline, done, ping);
  }));
  threads.emplace_back(guarded(3, [&] {
    submits = closed_loop_submits(port, seed, fresh, submits_wanted, populated_seed, start);
    done = true;
  }));
  for (auto& t : threads) t.join();
  for (const auto& error : errors) {
    if (!error.empty()) throw std::runtime_error("service-load: " + error);
  }
  const double load_s = seconds_since(start);

  util::Json doc;
  util::JsonArray query_records;
  std::vector<double> query_lat, query_late;
  for (const auto& log : query_logs) {
    for (std::size_t i = 0; i < log.lat_ms.size(); ++i) {
      util::Json rec;
      rec.set("spec", static_cast<std::int64_t>(log.spec_index[i]));
      rec.set("lat_ms", log.lat_ms[i]);
      rec.set("digest", log.digests[i]);
      query_records.push_back(std::move(rec));
      query_lat.push_back(log.lat_ms[i]);
    }
    query_late.insert(query_late.end(), log.late_ms.begin(), log.late_ms.end());
  }
  doc.set("load_s", load_s);
  doc.set("queries", util::Json(queries));
  doc.set("query_records", util::Json(std::move(query_records)));
  doc.set("query_lat_ms", numbers(query_lat));
  doc.set("query_late_ms", numbers(query_late));
  doc.set("ping_lat_ms", numbers(ping_log.lat_ms));
  doc.set("ping_late_ms", numbers(ping_log.late_ms));
  doc.set("submit_s", numbers(submits.latency_s));
  doc.set("jobs", util::Json(std::move(submits.jobs)));
  emit(args, doc);
  return 0;
}


int cmd_service_check(const Args& args) {
  const util::Json load = read_json(args.str("load"));
  std::vector<store::Query> queries;
  for (const auto& q : load.find("queries")->as_array()) queries.push_back(query_from_json(q));

  // Replay every wire query in-process against the store the daemon
  // served (it has exited; one process owns a store at a time).
  auto handle = open_store(args.str("dir"), nullptr);
  std::uint64_t query_mismatches = 0, job_mismatches = 0;
  std::vector<double> replay_ms, wire_ms;
  for (const auto& rec : load.find("query_records")->as_array()) {
    const double lat = rec.find("lat_ms")->as_number();
    if (lat < 0) continue;  // failed on the wire; already counted
    const auto& q = queries[static_cast<std::size_t>(rec.find("spec")->as_int64())];
    const auto start = Clock::now();
    const store::QueryResult result = handle->query(q);
    replay_ms.push_back(seconds_since(start) * 1e3);
    wire_ms.push_back(lat);
    if (result.digest_hex != rec.find("digest")->as_string()) {
      ++query_mismatches;
      std::cerr << "service: wire store_query digest differs from in-process replay\n";
    }
  }
  handle.reset();

  // Rerun every distinct completed job config in-process.
  std::map<std::uint64_t, std::string> expected;
  std::uint64_t job_checks = 0;
  for (const auto& job : load.find("jobs")->as_array()) {
    if (job.find("state")->as_string() != "complete") continue;
    const auto job_seed = static_cast<std::uint64_t>(job.find("seed")->as_int64());
    auto it = expected.find(job_seed);
    if (it == expected.end()) {
      const pipeline::StudyResult result = pipeline::run_study(study_config(job_seed, kSubmitScale, 1));
      it = expected.emplace(job_seed, study_digest(result)).first;
    }
    ++job_checks;
    if (it->second != job.find("digest")->as_string()) {
      ++job_mismatches;
      std::cerr << "service: job digest for seed " << job_seed << " differs from run_study\n";
    }
  }

  util::Json doc;
  doc.set("replay_ms", numbers(replay_ms));
  doc.set("wire_ms", numbers(wire_ms));
  doc.set("job_checks", static_cast<std::int64_t>(job_checks));
  doc.set("job_mismatches", static_cast<std::int64_t>(job_mismatches));
  doc.set("query_mismatches", static_cast<std::int64_t>(query_mismatches));
  emit(args, doc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness <study|store-build|store-query|service-populate|"
                 "service-load|service-check> [--key value]...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    if (cmd == "study") return cmd_study(args);
    if (cmd == "store-build") return cmd_store_build(args);
    if (cmd == "store-query") return cmd_store_query(args);
    if (cmd == "service-populate") return cmd_service_populate(args);
    if (cmd == "service-load") return cmd_service_load(args);
    if (cmd == "service-check") return cmd_service_check(args);
    std::cerr << "perfbench_harness: unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
