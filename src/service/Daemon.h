//===- service/Daemon.h - The vpod compile service daemon -------*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon side of the compile service: a single-threaded poll() loop
/// that accepts framed requests on a Unix-domain socket and farms the
/// dangerous work (parsing, optimizing, simulating untrusted kernels)
/// out to a pool of forked worker processes. The event loop itself never
/// touches request IR — its availability does not depend on any property
/// of the input.
///
/// Robustness model, in the order a request meets it:
///
///   1. **Load shedding.** Requests shard onto per-worker bounded queues
///      (by content hash, so repeats of one kernel serialize onto one
///      worker and populate the cache for the rest). A full queue sheds
///      the request immediately with ErrorCode::Overloaded — the client
///      knows nothing was attempted.
///   2. **Content cache.** Results are keyed by canonicalized content
///      (service/ContentCache.h). A hit on the request's raw bytes
///      bypasses the pool entirely and replays a byte-identical result.
///      Other requests reach a worker, which on a rung-0 unplanted attempt
///      parses, sends the canonical key and waits (the key exchange,
///      service/Protocol.h): a textual variant of stored content is then
///      answered from the store and its raw bytes aliased, and only a
///      store miss is compiled. The event loop still never parses IR.
///   3. **Containment.** Each attempt runs in a forked worker under a
///      wall-clock deadline. A crash (any signal) or deadline expiry
///      kills only the worker; the daemon reaps it and respawns the
///      slot with exponential backoff (reset on the first success).
///   4. **Degradation ladder.** A request whose worker died is retried
///      at the next rung — 1: no coalescing, 2: reference O0 pipeline —
///      so optimizer bugs cost optimization, never availability. The
///      response reports Rung and Degraded; a request that dies even at
///      rung 2 gets a structured DeadlineExceeded / Internal error, and
///      the daemon keeps serving.
///
/// Single-threadedness is load-bearing: fork() from a multi-threaded
/// process inherits held locks in the child, so the pool would deadlock
/// the moment a worker forked while another thread held the heap lock.
/// The loop only shuttles bytes; the pool provides the parallelism.
///
//===----------------------------------------------------------------------===//

#ifndef VPO_SERVICE_DAEMON_H
#define VPO_SERVICE_DAEMON_H

#include "service/CacheStore.h"
#include "service/ContentCache.h"
#include "service/Protocol.h"
#include "service/Worker.h"
#include "support/Diagnostics.h"

#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace vpo {
namespace service {

struct DaemonOptions {
  std::string SocketPath = "vpod.sock";
  unsigned Workers = 4;
  /// Bounded queue depth per worker shard; beyond it requests shed with
  /// ErrorCode::Overloaded.
  size_t QueueDepth = 64;
  uint64_t DefaultDeadlineMs = 5000;
  /// Cap on a request's own deadline_ms override.
  uint64_t MaxDeadlineMs = 30000;
  size_t CacheEntries = 1024;
  size_t MaxFrameBytes = defaultMaxFrameBytes;
  /// Worker resource fences (and --allow-fault-injection).
  WorkerLimits Limits;
  /// Checked each loop tick; set from a signal handler to stop cleanly.
  volatile std::sig_atomic_t *StopFlag = nullptr;
  /// Checked each loop tick; set from SIGTERM to drain: stop accepting,
  /// finish queued work under DrainDeadlineMs, flush the journal, exit.
  volatile std::sig_atomic_t *DrainFlag = nullptr;
  uint64_t DrainDeadlineMs = 5000;
  /// Path of the persistent cache journal (service/CacheStore.h).
  /// Empty disables persistence.
  std::string CacheJournalPath;
  /// fsync the journal after every insert (the crash-safety default).
  bool JournalSyncEveryInsert = true;
};

/// Monotonically increasing service counters, reported by op=status and
/// asserted on by the availability tests.
struct DaemonCounters {
  uint64_t Requests = 0;      ///< compile requests accepted
  uint64_t CacheHits = 0;     ///< served without touching the pool
  /// Served from the store after a worker's key frame named stored
  /// content (textual variants), with no compile.
  uint64_t CanonicalHits = 0;
  uint64_t Shed = 0;          ///< rejected with Overloaded
  uint64_t WorkerCrashes = 0; ///< attempts that killed their worker
  uint64_t WorkerDeadlines = 0; ///< attempts killed by the deadline
  uint64_t Respawns = 0;      ///< worker processes forked after the initial pool
  uint64_t Degraded = 0;      ///< responses served from rung > 0
  uint64_t Exhausted = 0;     ///< requests that failed every rung
  uint64_t Probes = 0;        ///< rung-0 probation probes dispatched
  uint64_t ProbeFailures = 0; ///< probes whose worker died again
  uint64_t Reloads = 0;       ///< op=reload requests honored
};

class Daemon {
public:
  explicit Daemon(DaemonOptions Opts);
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds the socket and forks the initial pool. On error nothing is
  /// left running.
  Status start();

  /// Runs the event loop until StopFlag is raised or an op=shutdown
  /// request arrives. Returns only after workers are reaped and the
  /// socket unlinked.
  void run();

  /// One loop iteration (poll + dispatch), for tests that drive the
  /// daemon in-process without committing to run()'s lifetime.
  /// \returns false once a stop was requested.
  bool step(int TimeoutMs);

  const DaemonCounters &counters() const { return Counters; }
  const ContentCache &cache() const { return Cache; }
  const std::string &socketPath() const { return Opts.SocketPath; }
  const CacheRecoveryStats &recovery() const { return Recovery; }
  bool draining() const { return Draining; }

private:
  struct ClientConn {
    int Fd = -1;
    FrameDecoder Dec;
    std::string Out;    ///< bytes not yet written
    bool CloseAfterFlush = false;
    /// Per-connection response ordering. Pipelined requests shard onto
    /// different workers and complete in any order; each incoming frame
    /// takes a ticket, and a response whose ticket is ahead of NextSend
    /// is held until the gap closes. Clients therefore always see
    /// responses in request order, which is what lets them pipeline
    /// without correlating by id.
    uint64_t NextTicket = 0;
    uint64_t NextSend = 0;
    std::map<uint64_t, std::string> Held; ///< framed, early responses
  };

  /// One queued or in-flight compile attempt.
  struct Pending {
    ServiceRequest Req;
    uint64_t ClientSeq = 0;
    ContentKey RawKey;
    unsigned Rung = 0;
    std::string Degraded;   ///< why the rung moved ("worker-crash", ...)
    uint64_t DeadlineMs = 0; ///< resolved per-attempt budget
    /// Rung actually dispatched: max(Rung, worker's sticky rung) unless
    /// this attempt is a probation probe.
    unsigned AttemptRung = 0;
    bool Probe = false; ///< rung-0 probe of a sticky-degraded worker
    /// Canonical key (hex) from this attempt's key frame; empty until one
    /// arrives. The final response must name the same key.
    std::string Key;
    uint64_t Serial = 0; ///< per-request token for distinct-death counting
    uint64_t Ticket = 0; ///< position in the connection's response order
  };

  struct WorkerSlot {
    long Pid = -1;
    int Fd = -1;
    FrameDecoder Dec;
    std::string Out;
    bool Busy = false;
    Pending Cur;
    uint64_t DeadlineAt = 0; ///< monotonic ms; 0 when idle
    std::deque<Pending> Queue;
    unsigned Fails = 0;     ///< consecutive deaths, drives backoff
    uint64_t RespawnAt = 0; ///< monotonic ms gate for the next fork
    /// Probation floor: a worker that keeps dying serves at this rung
    /// until an op=reload arms a probe and the probe succeeds.
    unsigned StickyRung = 0;
    bool ProbeArmed = false; ///< next rung-0 request runs as the probe
    /// Deaths on *distinct* requests since the last success. A single
    /// request escalating its own ladder counts once: its retries are
    /// already contained by the per-request ladder, and one poisoned
    /// input must not demote the slot for everyone else.
    unsigned DistinctFails = 0;
    uint64_t LastDeathSerial = 0;
  };

  // Lifecycle.
  Status spawnWorker(WorkerSlot &W);
  void killWorker(WorkerSlot &W);
  void respawnDueWorkers(uint64_t Now);

  // Event handling.
  void acceptClients();
  void readClient(uint64_t Seq);
  void flushClient(uint64_t Seq);
  void dropClient(uint64_t Seq);
  void handleFrame(uint64_t Seq, const std::string &Payload);
  void handleCompile(uint64_t Seq, uint64_t Ticket, ServiceRequest Req);
  void readWorker(size_t Idx);
  void handleWorkerResponse(WorkerSlot &W, const std::string &Payload);
  void handleWorkerKey(WorkerSlot &W, const std::string &KeyHex);
  /// Ends W's in-flight attempt as a success and \returns it.
  Pending finishAttempt(WorkerSlot &W);
  void workerDied(size_t Idx, const char *Why);
  void checkDeadlines(uint64_t Now);
  void pumpWorkers(uint64_t Now);
  void beginDrain(uint64_t Now);
  bool drainComplete() const;
  void handleReload(uint64_t Seq, uint64_t Ticket, const ServiceRequest &Req);

  // Responses.
  void sendResponse(uint64_t Seq, uint64_t Ticket, const ServiceRequest &Req,
                    ServiceResponse Resp);
  void sendCached(uint64_t Seq, uint64_t Ticket, const ServiceRequest &Req,
                  const CachedResult &CR);
  /// Re-queue (next rung) or fail (ladder exhausted) W.Cur.
  void escalate(WorkerSlot &W, const char *Why, ErrorCode ExhaustedCode);

  bool stopRequested() const {
    return Stopping || (Opts.StopFlag && *Opts.StopFlag);
  }

  DaemonOptions Opts;
  int ListenFd = -1;
  ContentCache Cache;
  CacheStore Store;
  CacheRecoveryStats Recovery;
  DaemonCounters Counters;
  bool Draining = false;
  uint64_t DrainDeadlineAt = 0;
  uint64_t NextRequestSerial = 1;
  uint64_t NextClientSeq = 1;
  std::map<uint64_t, ClientConn> Clients;
  std::unordered_map<int, uint64_t> FdToClient;
  std::vector<WorkerSlot> Workers;
  bool Stopping = false;
};

} // namespace service
} // namespace vpo

#endif // VPO_SERVICE_DAEMON_H
