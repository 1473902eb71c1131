//===- service/Daemon.cpp - The vpod compile service daemon -----*- C++ -*-===//
//
// Part of the vpo-mac project.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include "support/Posix.h"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define VPO_SERVICE_POSIX 1
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>
#endif

using namespace vpo;
using namespace vpo::service;

namespace {

#ifdef VPO_SERVICE_POSIX

uint64_t nowMs() {
  timespec TS;
  clock_gettime(CLOCK_MONOTONIC, &TS);
  return uint64_t(TS.tv_sec) * 1000 + uint64_t(TS.tv_nsec) / 1000000;
}

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// Nonblocking write of as much of [Data+Pos, Data+Size) as the fd takes.
/// \returns false on a hard error (not EAGAIN/EINTR).
bool writeSome(int Fd, const std::string &Data, size_t &Pos) {
  while (Pos < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Pos, Data.size() - Pos);
    if (N > 0) {
      Pos += size_t(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    return false;
  }
  return true;
}

/// Flushes \p Out in place (erasing written bytes). \returns false on a
/// hard error.
bool flushBuffer(int Fd, std::string &Out) {
  size_t Pos = 0;
  bool Ok = writeSome(Fd, Out, Pos);
  Out.erase(0, Pos);
  return Ok;
}

#endif // VPO_SERVICE_POSIX

} // namespace

Daemon::Daemon(DaemonOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheEntries) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
}

Daemon::~Daemon() {
#ifdef VPO_SERVICE_POSIX
  for (WorkerSlot &W : Workers)
    killWorker(W);
  for (auto &KV : Clients)
    if (KV.second.Fd >= 0)
      ::close(KV.second.Fd);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Opts.SocketPath.c_str());
  }
#endif
}

#ifdef VPO_SERVICE_POSIX

Status Daemon::start() {
  posix::ignoreSigpipe();
  if (!posix::hasFork())
    return Status::error(ErrorCode::Unsupported, "vpod", "",
                         "fork() is unavailable on this platform");
  if (Opts.SocketPath.size() >= sizeof(sockaddr_un{}.sun_path))
    return Status::error(ErrorCode::Unsupported, "vpod", "",
                         "socket path too long: " + Opts.SocketPath);

  // Recover the persistent cache before anything can query it, and
  // before forking workers (children abandon the inherited fd).
  if (!Opts.CacheJournalPath.empty()) {
    Store.Opts.SyncEveryWrite = Opts.JournalSyncEveryInsert;
    Recovery = CacheRecoveryStats();
    std::string Err;
    if (!Store.open(Opts.CacheJournalPath, Cache, Recovery, Err))
      return Status::error(ErrorCode::Internal, "vpod", "", Err);
  }

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Status::error(ErrorCode::Internal, "vpod", "",
                         std::string("socket: ") + std::strerror(errno));
  ::unlink(Opts.SocketPath.c_str()); // stale socket from a dead daemon
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 64) < 0 || !setNonBlocking(ListenFd)) {
    Status S = Status::error(ErrorCode::Internal, "vpod", "",
                             "bind/listen " + Opts.SocketPath + ": " +
                                 std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return S;
  }

  Workers.resize(Opts.Workers);
  for (WorkerSlot &W : Workers)
    if (Status S = spawnWorker(W); !S) {
      for (WorkerSlot &K : Workers)
        killWorker(K);
      ::close(ListenFd);
      ListenFd = -1;
      ::unlink(Opts.SocketPath.c_str());
      return S;
    }
  return Status::ok();
}

Status Daemon::spawnWorker(WorkerSlot &W) {
  int Pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair) < 0)
    return Status::error(ErrorCode::Internal, "vpod", "",
                         std::string("socketpair: ") + std::strerror(errno));
  long Pid = ::fork();
  if (Pid < 0) {
    ::close(Pair[0]);
    ::close(Pair[1]);
    return Status::error(ErrorCode::Internal, "vpod", "",
                         std::string("fork: ") + std::strerror(errno));
  }
  if (Pid == 0) {
    // Child: drop every daemon fd so a worker cannot reach the socket,
    // other workers, or clients, then serve until EOF.
    ::close(Pair[0]);
    if (ListenFd >= 0)
      ::close(ListenFd);
    for (auto &KV : Clients)
      if (KV.second.Fd >= 0)
        ::close(KV.second.Fd);
    for (WorkerSlot &O : Workers)
      if (O.Fd >= 0)
        ::close(O.Fd);
    Store.abandon(); // never let a worker touch the parent's journal
    workerMain(Pair[1], Opts.Limits); // noreturn
  }
  ::close(Pair[1]);
  if (!setNonBlocking(Pair[0])) {
    ::close(Pair[0]);
    posix::reapChild(Pid, 0);
    return Status::error(ErrorCode::Internal, "vpod", "",
                         "could not set worker fd nonblocking");
  }
  W.Pid = Pid;
  W.Fd = Pair[0];
  W.Dec = FrameDecoder(Opts.MaxFrameBytes);
  W.Out.clear();
  W.Busy = false;
  W.DeadlineAt = 0;
  return Status::ok();
}

void Daemon::killWorker(WorkerSlot &W) {
  if (W.Fd >= 0) {
    ::close(W.Fd);
    W.Fd = -1;
  }
  if (W.Pid > 0) {
    posix::reapChild(W.Pid, /*GraceMs=*/0); // SIGKILL + reap
    W.Pid = -1;
  }
  W.Dec = FrameDecoder(Opts.MaxFrameBytes);
  W.Out.clear();
  W.DeadlineAt = 0;
}

void Daemon::respawnDueWorkers(uint64_t Now) {
  for (WorkerSlot &W : Workers) {
    if (W.Pid > 0 || Now < W.RespawnAt)
      continue;
    if (spawnWorker(W)) {
      ++Counters.Respawns;
    } else {
      // fork/socketpair failure (fd or process pressure): try again
      // after a full backoff period rather than spinning.
      W.RespawnAt = Now + 1000;
    }
  }
}

void Daemon::escalate(WorkerSlot &W, const char *Why,
                      ErrorCode ExhaustedCode) {
  Pending P = std::move(W.Cur);
  W.Busy = false;
  W.DeadlineAt = 0;
  // The failed attempt may already have been lifted above P.Rung by the
  // worker's sticky floor; the ladder continues from where it died.
  P.Rung = P.AttemptRung + 1;
  P.Degraded = Why;
  if (P.Rung > maxServiceRung) {
    ++Counters.Exhausted;
    ServiceResponse Resp;
    Resp.Id = P.Req.Id;
    Resp.Status = ExhaustedCode;
    Resp.Rung = maxServiceRung;
    Resp.Degraded = Why;
    Resp.Error = std::string("degradation ladder exhausted: the request "
                             "failed every rung (last: ") +
                 Why + " at rung " + std::to_string(maxServiceRung) +
                 ", the reference pipeline)";
    sendResponse(P.ClientSeq, P.Ticket, P.Req, std::move(Resp));
    return;
  }
  // Back to the front of its own shard: the retry keeps its position
  // (and its cache-population duty) rather than re-queueing at the tail.
  W.Queue.push_front(std::move(P));
}

void Daemon::workerDied(size_t Idx, const char *Why) {
  WorkerSlot &W = Workers[Idx];
  bool Deadline = std::strcmp(Why, "worker-deadline") == 0;
  if (Deadline)
    ++Counters.WorkerDeadlines;
  else
    ++Counters.WorkerCrashes;
  if (W.Busy && W.Cur.Probe)
    ++Counters.ProbeFailures; // probation continues at the sticky rung
  if (!W.Busy || W.Cur.Serial != W.LastDeathSerial) {
    ++W.DistinctFails; // idle deaths (boot trouble) always count
    if (W.Busy)
      W.LastDeathSerial = W.Cur.Serial;
  }
  if (W.Busy)
    escalate(W, Why,
             Deadline ? ErrorCode::DeadlineExceeded : ErrorCode::Internal);
  killWorker(W);
  W.Fails = W.Fails < 16 ? W.Fails + 1 : W.Fails;
  // Deaths on three distinct requests with no success in between make
  // the degradation sticky: the slot serves at the degraded rung until
  // an op=reload probe succeeds, instead of burning a crash per request
  // on a poisoned environment.
  if (W.DistinctFails >= 3 && W.StickyRung < maxServiceRung)
    ++W.StickyRung;
  // Exponential backoff, 50ms..5s: a worker dying on its *input* is
  // respawned almost immediately; a worker dying at boot (environment
  // trouble) stops eating fork bandwidth.
  uint64_t Backoff = 50u << (W.Fails - 1 < 7 ? W.Fails - 1 : 7);
  if (Backoff > 5000)
    Backoff = 5000;
  W.RespawnAt = nowMs() + Backoff;
}

void Daemon::checkDeadlines(uint64_t Now) {
  for (size_t I = 0; I < Workers.size(); ++I) {
    WorkerSlot &W = Workers[I];
    if (W.Pid > 0 && W.Busy && Now >= W.DeadlineAt)
      workerDied(I, "worker-deadline");
  }
}

void Daemon::pumpWorkers(uint64_t Now) {
  for (WorkerSlot &W : Workers) {
    while (W.Pid > 0 && !W.Busy && !W.Queue.empty()) {
      Pending P = std::move(W.Queue.front());
      W.Queue.pop_front();
      // The cache may have been populated since this request queued
      // (typical under a burst of one hot kernel): serve it now rather
      // than recompiling.
      if (P.Req.Fault.empty() && P.Rung == 0) {
        if (const CachedResult *CR = Cache.lookupRaw(P.RawKey)) {
          ++Counters.CacheHits;
          sendCached(P.ClientSeq, P.Ticket, P.Req, *CR);
          continue;
        }
      }
      // A sticky-degraded slot lifts every attempt to its floor — except
      // the single armed probe, which runs at rung 0 to test recovery.
      P.AttemptRung = P.Rung;
      P.Probe = false;
      P.Key.clear();
      if (W.StickyRung > P.Rung) {
        if (W.ProbeArmed && P.Rung == 0 && P.Req.Fault.empty()) {
          W.ProbeArmed = false;
          P.Probe = true;
          ++Counters.Probes;
        } else {
          P.AttemptRung = W.StickyRung;
        }
      }
      ServiceRequest WReq = P.Req;
      WReq.Rung = P.AttemptRung;
      appendFrame(W.Out, WReq.toJson());
      W.Busy = true;
      W.Cur = std::move(P);
      W.DeadlineAt = Now + W.Cur.DeadlineMs;
      if (!flushBuffer(W.Fd, W.Out)) {
        // The worker is already dead (EPIPE); the normal death path
        // will requeue this attempt at the next rung.
        size_t Idx = size_t(&W - Workers.data());
        workerDied(Idx, "worker-crash");
        break;
      }
    }
  }
}

void Daemon::acceptClients() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or transient accept error: next tick
    }
    if (!setNonBlocking(Fd)) {
      ::close(Fd);
      continue;
    }
    uint64_t Seq = NextClientSeq++;
    ClientConn &C = Clients[Seq];
    C.Fd = Fd;
    C.Dec = FrameDecoder(Opts.MaxFrameBytes);
    FdToClient[Fd] = Seq;
  }
}

void Daemon::dropClient(uint64_t Seq) {
  auto It = Clients.find(Seq);
  if (It == Clients.end())
    return;
  FdToClient.erase(It->second.Fd);
  ::close(It->second.Fd);
  Clients.erase(It);
}

void Daemon::readClient(uint64_t Seq) {
  auto It = Clients.find(Seq);
  if (It == Clients.end())
    return;
  ClientConn &C = It->second;
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.Dec.feed(Buf, size_t(N));
      if (size_t(N) < sizeof(Buf))
        break;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    // EOF or hard error: the client is gone. In-flight work for it
    // still completes (and populates the cache); delivery is skipped.
    dropClient(Seq);
    return;
  }
  for (;;) {
    std::string Payload;
    FrameStatus FS = C.Dec.next(Payload);
    if (FS == FrameStatus::NeedMore)
      break;
    if (FS != FrameStatus::Ok) {
      // Malformed framing cannot be resynchronized; drop the peer.
      dropClient(Seq);
      return;
    }
    handleFrame(Seq, Payload);
    if (Clients.find(Seq) == Clients.end())
      return; // shutdown/parse error closed it
  }
}

void Daemon::handleFrame(uint64_t Seq, const std::string &Payload) {
  auto ConnIt = Clients.find(Seq);
  if (ConnIt == Clients.end())
    return;
  // Every frame takes the connection's next response ticket, so answers
  // computed out of order (pipelined requests land on different
  // workers) still go back in request order.
  uint64_t Ticket = ConnIt->second.NextTicket++;
  std::optional<ServiceRequest> Req = ServiceRequest::fromJson(Payload);
  if (!Req) {
    ServiceResponse Resp;
    Resp.Status = ErrorCode::ParseError;
    Resp.Error = "malformed request payload";
    sendResponse(Seq, Ticket, ServiceRequest(), std::move(Resp));
    return;
  }
  if (Req->Op == "ping") {
    ServiceResponse Resp;
    Resp.Id = Req->Id;
    sendResponse(Seq, Ticket, *Req, std::move(Resp));
    return;
  }
  if (Req->Op == "status") {
    ServiceResponse Resp;
    Resp.Id = Req->Id;
    auto Put = [&Resp](const char *K, uint64_t V) {
      Resp.Extra.emplace_back(K, std::to_string(V));
    };
    Put("requests", Counters.Requests);
    Put("cache_hits", Counters.CacheHits);
    Put("canonical_hits", Counters.CanonicalHits);
    Put("cache_entries", Cache.size());
    Put("shed", Counters.Shed);
    Put("worker_crashes", Counters.WorkerCrashes);
    Put("worker_deadlines", Counters.WorkerDeadlines);
    Put("respawns", Counters.Respawns);
    // "degraded" would collide with the response's own field of that
    // name and be swallowed by fromJson instead of landing in Extra.
    Put("served_degraded", Counters.Degraded);
    Put("exhausted", Counters.Exhausted);
    Put("workers", Workers.size());
    size_t Queued = 0;
    for (const WorkerSlot &W : Workers)
      Queued += W.Queue.size() + (W.Busy ? 1 : 0);
    Put("queued", Queued);
    Put("cache_recovered", Recovery.RecoveredEntries);
    Put("cache_discarded", Recovery.DiscardedRecords);
    Put("cache_torn_tail", Recovery.TornTail ? 1 : 0);
    Put("journal_bytes", Store.journalBytes());
    Put("journal_garbage", Store.garbageBytes());
    Put("compactions", Store.compactions());
    Put("reloads", Counters.Reloads);
    Put("probes", Counters.Probes);
    Put("probe_failures", Counters.ProbeFailures);
    size_t Sticky = 0;
    for (const WorkerSlot &W : Workers)
      Sticky += W.StickyRung > 0 ? 1 : 0;
    Put("sticky_degraded", Sticky);
    Put("draining", Draining ? 1 : 0);
    sendResponse(Seq, Ticket, *Req, std::move(Resp));
    return;
  }
  if (Req->Op == "reload") {
    handleReload(Seq, Ticket, *Req);
    return;
  }
  if (Req->Op == "shutdown") {
    ServiceResponse Resp;
    Resp.Id = Req->Id;
    sendResponse(Seq, Ticket, *Req, std::move(Resp));
    Stopping = true;
    return;
  }
  if (Req->Op == "compile") {
    handleCompile(Seq, Ticket, std::move(*Req));
    return;
  }
  ServiceResponse Resp;
  Resp.Id = Req->Id;
  Resp.Status = ErrorCode::Unsupported;
  Resp.Error = "unknown op \"" + Req->Op + "\"";
  sendResponse(Seq, Ticket, *Req, std::move(Resp));
}

void Daemon::handleReload(uint64_t Seq, uint64_t Ticket,
                          const ServiceRequest &Req) {
  ++Counters.Reloads;
  ServiceResponse Resp;
  Resp.Id = Req.Id;
  // Re-open the journal (picks up an operator-swapped file, compacts
  // accumulated garbage into a fresh replay baseline).
  if (!Opts.CacheJournalPath.empty()) {
    Store.close();
    CacheRecoveryStats RS;
    std::string Err;
    if (Store.open(Opts.CacheJournalPath, Cache, RS, Err)) {
      Recovery = RS;
    } else {
      Resp.Status = ErrorCode::Internal;
      Resp.Error = Err;
    }
  }
  // Reset the probation ladder: every sticky-degraded slot gets exactly
  // one rung-0 probe; it re-promotes only if the probe survives.
  size_t Armed = 0;
  for (WorkerSlot &W : Workers)
    if (W.StickyRung > 0) {
      W.ProbeArmed = true;
      ++Armed;
    }
  Resp.Extra.emplace_back("probes_armed", std::to_string(Armed));
  Resp.Extra.emplace_back("cache_recovered",
                          std::to_string(Recovery.RecoveredEntries));
  sendResponse(Seq, Ticket, Req, std::move(Resp));
}

void Daemon::handleCompile(uint64_t Seq, uint64_t Ticket,
                           ServiceRequest Req) {
  ++Counters.Requests;
  if (Draining) {
    ++Counters.Shed;
    ServiceResponse Resp;
    Resp.Id = Req.Id;
    Resp.Status = ErrorCode::Overloaded;
    Resp.Error = "draining: daemon is shutting down; retry the next one";
    sendResponse(Seq, Ticket, Req, std::move(Resp));
    return;
  }
  if (!Req.Fault.empty() && !Opts.Limits.AllowFaultInjection) {
    ServiceResponse Resp;
    Resp.Id = Req.Id;
    Resp.Status = ErrorCode::Unsupported;
    Resp.Error = "fault plants require --allow-fault-injection";
    sendResponse(Seq, Ticket, Req, std::move(Resp));
    return;
  }

  Pending P;
  P.ClientSeq = Seq;
  P.Ticket = Ticket;
  P.Serial = NextRequestSerial++;
  P.Rung = 0;
  P.DeadlineMs = Req.DeadlineMs == 0
                     ? Opts.DefaultDeadlineMs
                     : (Req.DeadlineMs < Opts.MaxDeadlineMs
                            ? Req.DeadlineMs
                            : Opts.MaxDeadlineMs);
  // The raw key hashes the request bytes exactly as they arrived — the
  // daemon never parses IR. Byte-identical repeats hit here; a textual
  // variant is resolved by its worker's key frame (handleWorkerKey).
  P.RawKey = hashContent(Req.IR, Req.Config, Req.Target, runSignature(Req));
  if (Req.Fault.empty()) {
    if (const CachedResult *CR = Cache.lookupRaw(P.RawKey)) {
      ++Counters.CacheHits;
      sendCached(Seq, Ticket, Req, *CR);
      return;
    }
  }

  // Shard by content so a burst of one kernel serializes onto one worker
  // (the first compile populates the cache for the rest) while distinct
  // kernels spread across the pool.
  WorkerSlot &W =
      Workers[size_t(P.RawKey.Lo % uint64_t(Workers.size()))];
  if (W.Queue.size() >= Opts.QueueDepth) {
    ++Counters.Shed;
    ServiceResponse Resp;
    Resp.Id = Req.Id;
    Resp.Status = ErrorCode::Overloaded;
    Resp.Error = "queue full (" + std::to_string(Opts.QueueDepth) +
                 " deep); retry later";
    sendResponse(Seq, Ticket, Req, std::move(Resp));
    return;
  }
  P.Req = std::move(Req);
  W.Queue.push_back(std::move(P));
}

void Daemon::readWorker(size_t Idx) {
  WorkerSlot &W = Workers[Idx];
  if (W.Fd < 0)
    return;
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(W.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      W.Dec.feed(Buf, size_t(N));
      if (size_t(N) < sizeof(Buf))
        break;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    // EOF: the worker died (crash plant, real bug, or rlimit kill).
    workerDied(Idx, "worker-crash");
    return;
  }
  for (;;) {
    std::string Payload;
    FrameStatus FS = W.Dec.next(Payload);
    if (FS == FrameStatus::NeedMore)
      break;
    if (FS != FrameStatus::Ok) {
      workerDied(Idx, "worker-crash");
      return;
    }
    handleWorkerResponse(W, Payload);
  }
}

Daemon::Pending Daemon::finishAttempt(WorkerSlot &W) {
  Pending P = std::move(W.Cur);
  W.Busy = false;
  W.DeadlineAt = 0;
  W.Fails = 0; // success resets the backoff and distinct-death ladders
  W.DistinctFails = 0;
  if (P.Probe)
    W.StickyRung = 0; // probation passed: the slot re-promotes
  return P;
}

void Daemon::handleWorkerKey(WorkerSlot &W, const std::string &KeyHex) {
  size_t Idx = size_t(&W - Workers.data());
  std::optional<ContentKey> Canon = contentKeyFromHex(KeyHex);
  // One key frame per rung-0 unplanted attempt, the only kind the worker
  // asks for; anything else means its stream can no longer be trusted.
  if (!Canon || !W.Busy ||
      !keyExchangeDue(W.Cur.AttemptRung, W.Cur.Req.Fault) ||
      !W.Cur.Key.empty()) {
    workerDied(Idx, "worker-crash");
    return;
  }
  W.Cur.Key = KeyHex;
  // A probation probe exists to run the full pipeline, so it never hits.
  const CachedResult *CR = W.Cur.Probe ? nullptr : Cache.lookup(*Canon);
  appendFrame(W.Out, verdictFrame(CR != nullptr));
  if (CR) {
    Pending P = finishAttempt(W);
    ++Counters.CanonicalHits;
    sendCached(P.ClientSeq, P.Ticket, P.Req, *CR);
    // Alias the variant's raw bytes so its next repeat needs no worker.
    // Serving first is safe: a lost alias only costs another key frame.
    Store.noteAlias(P.RawKey, *Canon);
    Cache.alias(P.RawKey, *Canon);
    Store.maybeCompact(Cache);
  }
  if (!flushBuffer(W.Fd, W.Out))
    workerDied(Idx, "worker-crash"); // a miss escalates like any death
}

void Daemon::handleWorkerResponse(WorkerSlot &W, const std::string &Payload) {
  if (std::optional<std::string> KeyHex = parseKeyFrame(Payload)) {
    handleWorkerKey(W, *KeyHex);
    return;
  }
  std::optional<ServiceResponse> Parsed = ServiceResponse::fromJson(Payload);
  // A frame we cannot attribute to the in-flight attempt, or a response
  // naming another key than the attempt's key frame did: the stream is
  // unreliable, recycle the worker (nothing is cached).
  if (!Parsed || !W.Busy ||
      (keyExchangeDue(W.Cur.AttemptRung, W.Cur.Req.Fault) &&
       Parsed->Key != W.Cur.Key)) {
    workerDied(size_t(&W - Workers.data()), "worker-crash");
    return;
  }
  Pending P = finishAttempt(W);

  ServiceResponse Resp = std::move(*Parsed);
  Resp.Id = P.Req.Id;
  Resp.Rung = P.AttemptRung; // authoritative: the daemon chose the rung
  Resp.Degraded = P.AttemptRung > P.Rung && P.Degraded.empty()
                      ? "sticky-degraded"
                      : P.Degraded;
  if (P.AttemptRung > 0)
    ++Counters.Degraded;

  // Only clean, full-pipeline, unplanted results are cacheable: a
  // degraded rung describes transient pool state, and a planted fault
  // describes the request, not the content.
  if (P.AttemptRung == 0 && Resp.Status == ErrorCode::Ok &&
      P.Req.Fault.empty()) {
    if (std::optional<ContentKey> Canon = contentKeyFromHex(Resp.Key)) {
      CachedResult CR;
      CR.Status = Resp.Status;
      CR.Key = Resp.Key;
      CR.IR = Resp.IR;
      CR.Stats = Resp.Stats;
      CR.Remarks = Resp.Remarks;
      CR.Incidents = Resp.Incidents;
      CR.Ran = Resp.Ran;
      CR.RunStatus = Resp.RunStatus;
      CR.ReturnValue = Resp.ReturnValue;
      CR.Cycles = Resp.Cycles;
      CR.Instructions = Resp.Instructions;
      // Write-ahead: journal first, so a crash between the two costs a
      // recompile rather than leaving a served-but-unjournaled entry.
      Store.noteInsert(*Canon, CR);
      Cache.insert(*Canon, std::move(CR));
      Store.noteAlias(P.RawKey, *Canon);
      Cache.alias(P.RawKey, *Canon);
      Store.maybeCompact(Cache);
    }
  }
  sendResponse(P.ClientSeq, P.Ticket, P.Req, std::move(Resp));
}

void Daemon::sendCached(uint64_t Seq, uint64_t Ticket,
                        const ServiceRequest &Req, const CachedResult &CR) {
  ServiceResponse Resp;
  Resp.Id = Req.Id;
  Resp.Status = CR.Status;
  Resp.Key = CR.Key;
  Resp.IR = CR.IR;
  Resp.Stats = CR.Stats;
  Resp.Remarks = CR.Remarks;
  Resp.Incidents = CR.Incidents;
  Resp.Ran = CR.Ran;
  Resp.RunStatus = CR.RunStatus;
  Resp.ReturnValue = CR.ReturnValue;
  Resp.Cycles = CR.Cycles;
  Resp.Instructions = CR.Instructions;
  Resp.Cached = true;
  sendResponse(Seq, Ticket, Req, std::move(Resp));
}

void Daemon::sendResponse(uint64_t Seq, uint64_t Ticket,
                          const ServiceRequest &Req, ServiceResponse Resp) {
  auto It = Clients.find(Seq);
  if (It == Clients.end())
    return; // client left; result (if cacheable) is already cached
  // Response filtering happens here, uniformly for fresh and cached
  // results, so WantIR/WantRemarks never participate in cache identity.
  if (!Req.WantIR)
    Resp.IR.clear();
  if (!Req.WantRemarks)
    Resp.Remarks.clear();
  ClientConn &C = It->second;
  // A response ahead of its turn waits; releasing one may release a run
  // of held successors. Request order is the wire order, always.
  if (Ticket != C.NextSend) {
    std::string Framed;
    appendFrame(Framed, Resp.toJson());
    C.Held.emplace(Ticket, std::move(Framed));
    return;
  }
  appendFrame(C.Out, Resp.toJson());
  ++C.NextSend;
  for (auto H = C.Held.find(C.NextSend); H != C.Held.end();
       H = C.Held.find(C.NextSend)) {
    C.Out += H->second;
    C.Held.erase(H);
    ++C.NextSend;
  }
  if (!flushBuffer(C.Fd, C.Out))
    dropClient(Seq);
}

void Daemon::flushClient(uint64_t Seq) {
  auto It = Clients.find(Seq);
  if (It == Clients.end())
    return;
  ClientConn &C = It->second;
  if (!flushBuffer(C.Fd, C.Out)) {
    dropClient(Seq);
    return;
  }
  if (C.Out.empty() && C.CloseAfterFlush)
    dropClient(Seq);
}

void Daemon::beginDrain(uint64_t Now) {
  if (Draining)
    return;
  Draining = true;
  DrainDeadlineAt = Now + Opts.DrainDeadlineMs;
  // Stop accepting: close and unlink the socket immediately so new
  // connects fail fast (and a replacement daemon can bind the path).
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Opts.SocketPath.c_str());
  }
}

bool Daemon::drainComplete() const {
  for (const WorkerSlot &W : Workers)
    if (W.Busy || !W.Queue.empty())
      return false;
  for (const auto &KV : Clients)
    if (!KV.second.Out.empty() || !KV.second.Held.empty())
      return false;
  return true;
}

bool Daemon::step(int TimeoutMs) {
  if (stopRequested())
    return false;
  uint64_t Now = nowMs();
  if (Opts.DrainFlag && *Opts.DrainFlag)
    beginDrain(Now);
  if (Draining && (drainComplete() || Now >= DrainDeadlineAt)) {
    Stopping = true;
    return false;
  }
  respawnDueWorkers(Now);
  pumpWorkers(Now);

  std::vector<pollfd> Fds;
  // Index bookkeeping: [0] listen, then clients, then workers. A
  // negative fd (listen socket closed by drain) is legally ignored by
  // poll(), keeping the indexing stable.
  Fds.push_back({ListenFd, POLLIN, 0});
  std::vector<uint64_t> ClientSeqs;
  for (auto &KV : Clients) {
    short Ev = POLLIN;
    if (!KV.second.Out.empty())
      Ev |= POLLOUT;
    Fds.push_back({KV.second.Fd, Ev, 0});
    ClientSeqs.push_back(KV.first);
  }
  size_t WorkerBase = Fds.size();
  for (WorkerSlot &W : Workers) {
    if (W.Fd < 0)
      continue;
    short Ev = POLLIN;
    if (!W.Out.empty())
      Ev |= POLLOUT;
    Fds.push_back({W.Fd, Ev, 0});
  }

  int R = ::poll(Fds.data(), nfds_t(Fds.size()), TimeoutMs);
  if (R < 0 && errno != EINTR && errno != EAGAIN)
    return false; // poll itself failed; treat as fatal
  Now = nowMs();

  if (R > 0) {
    if (ListenFd >= 0 && (Fds[0].revents & POLLIN))
      acceptClients();
    for (size_t I = 1; I < WorkerBase; ++I) {
      uint64_t Seq = ClientSeqs[I - 1];
      if (Fds[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Half-closed peers still expect queued responses; only a
        // read()==0 with nothing buffered actually drops them.
        if (Fds[I].revents & (POLLERR | POLLNVAL)) {
          dropClient(Seq);
          continue;
        }
      }
      if (Fds[I].revents & POLLOUT)
        flushClient(Seq);
      if (Clients.count(Seq) && (Fds[I].revents & (POLLIN | POLLHUP)))
        readClient(Seq);
    }
    // Workers may have been killed/respawned since the poll set was
    // built; match by fd to be safe.
    for (size_t I = WorkerBase; I < Fds.size(); ++I) {
      int Fd = Fds[I].fd;
      size_t Idx = Workers.size();
      for (size_t J = 0; J < Workers.size(); ++J)
        if (Workers[J].Fd == Fd)
          Idx = J;
      if (Idx == Workers.size())
        continue;
      if (Fds[I].revents & POLLOUT)
        if (!flushBuffer(Fd, Workers[Idx].Out)) {
          workerDied(Idx, "worker-crash");
          continue;
        }
      if (Workers[Idx].Fd == Fd &&
          (Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        readWorker(Idx);
    }
  }

  checkDeadlines(Now);
  pumpWorkers(Now);
  return !stopRequested();
}

void Daemon::run() {
  while (step(100))
    ;
  // Best-effort final flush so a shutdown ack reaches its client.
  uint64_t Until = nowMs() + 500;
  for (;;) {
    bool Dirty = false;
    for (auto It = Clients.begin(); It != Clients.end();) {
      uint64_t Seq = It->first;
      ++It;
      flushClient(Seq);
    }
    for (auto &KV : Clients)
      if (!KV.second.Out.empty())
        Dirty = true;
    if (!Dirty || nowMs() >= Until)
      break;
    struct timespec TS = {0, 5'000'000}; // 5ms
    nanosleep(&TS, nullptr);
  }
  for (WorkerSlot &W : Workers)
    killWorker(W);
  // Everything served is journaled; make it durable before exit 0.
  Store.sync();
  Store.close();
}

#else // !VPO_SERVICE_POSIX

Status Daemon::start() {
  return Status::error(ErrorCode::Unsupported, "vpod", "",
                       "the compile service requires a POSIX platform");
}
void Daemon::run() {}
bool Daemon::step(int) { return false; }
Status Daemon::spawnWorker(WorkerSlot &) {
  return Status::error(ErrorCode::Unsupported, "vpod", "", "no POSIX");
}
void Daemon::killWorker(WorkerSlot &) {}
void Daemon::respawnDueWorkers(uint64_t) {}
void Daemon::acceptClients() {}
void Daemon::readClient(uint64_t) {}
void Daemon::flushClient(uint64_t) {}
void Daemon::dropClient(uint64_t) {}
void Daemon::handleFrame(uint64_t, const std::string &) {}
void Daemon::handleCompile(uint64_t, uint64_t, ServiceRequest) {}
void Daemon::readWorker(size_t) {}
void Daemon::handleWorkerResponse(WorkerSlot &, const std::string &) {}
void Daemon::handleWorkerKey(WorkerSlot &, const std::string &) {}
Daemon::Pending Daemon::finishAttempt(WorkerSlot &W) {
  return std::move(W.Cur);
}
void Daemon::workerDied(size_t, const char *) {}
void Daemon::checkDeadlines(uint64_t) {}
void Daemon::pumpWorkers(uint64_t) {}
void Daemon::sendResponse(uint64_t, uint64_t, const ServiceRequest &,
                          ServiceResponse) {}
void Daemon::sendCached(uint64_t, uint64_t, const ServiceRequest &,
                        const CachedResult &) {}
void Daemon::escalate(WorkerSlot &, const char *, ErrorCode) {}
void Daemon::beginDrain(uint64_t) {}
bool Daemon::drainComplete() const { return true; }
void Daemon::handleReload(uint64_t, uint64_t, const ServiceRequest &) {}

#endif // VPO_SERVICE_POSIX
