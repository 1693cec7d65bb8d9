/**
 * @file
 * Sweep-server stack: the shared-memory memo cache (round-trip,
 * persistence across attaches, checksum corruption, stale-header
 * rebuild), the result codec, and the server lifecycle over the wire
 * protocol — cache-hit replays are byte-identical, concurrent clients
 * asking for the same uncached configuration simulate it once, and a
 * corrupted segment is rejected and rebuilt instead of served.
 *
 * Every test routes segments and sockets into a private temp directory
 * via SWSM_SHM_DIR, so parallel ctest runs never share state and
 * nothing touches the developer's real /dev/shm cache.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/result_codec.hh"
#include "serve/server.hh"
#include "serve/shard.hh"
#include "serve/shm_cache.hh"
#include "serve/shm_queue.hh"
#include "serve/wire.hh"
#include "serve/worker.hh"
#include "sim/log.hh"

namespace swsm
{
namespace
{

/** Private SWSM_SHM_DIR per test: segments and sockets live there. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/swsm_serve_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        ::setenv("SWSM_SHM_DIR", dir_.c_str(), 1);
    }

    void
    TearDown() override
    {
        ::unsetenv("SWSM_SHM_DIR");
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string sock() const { return dir_ + "/serve.sock"; }

    std::string dir_;
};

/** XOR one byte of @p path in place (segment corruption injection). */
void
flipByte(const std::string &path, std::uint64_t off)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0) << path;
    std::uint8_t b = 0;
    ASSERT_EQ(::pread(fd, &b, 1, static_cast<off_t>(off)), 1);
    b ^= 0xff;
    ASSERT_EQ(::pwrite(fd, &b, 1, static_cast<off_t>(off)), 1);
    ::close(fd);
}

TEST_F(ServeTest, ShmCacheRoundtrip)
{
    ShmCache::Options o;
    o.name = "memo";
    o.keySchema = 1;
    o.slotCount = 16;
    o.arenaBytes = 1 << 16;
    ShmCache cache(o);
    EXPECT_FALSE(cache.wasRebuilt()); // fresh file, not a rebuild
    EXPECT_EQ(cache.slotCount(), 16u);

    ASSERT_TRUE(cache.put("alpha", "value-a"));
    ASSERT_TRUE(cache.put("beta", "value-b"));
    ASSERT_TRUE(cache.put("gamma", std::string(1000, 'x')));

    std::string v;
    EXPECT_TRUE(cache.get("alpha", v));
    EXPECT_EQ(v, "value-a");
    EXPECT_TRUE(cache.get("gamma", v));
    EXPECT_EQ(v, std::string(1000, 'x'));
    EXPECT_FALSE(cache.get("missing", v));

    // First writer wins: a second put for a live key is a no-op.
    EXPECT_TRUE(cache.put("alpha", "usurper"));
    EXPECT_TRUE(cache.get("alpha", v));
    EXPECT_EQ(v, "value-a");

    const ShmCache::Stats st = cache.stats();
    EXPECT_EQ(st.inserts, 3u);
    EXPECT_EQ(st.slotsUsed, 3u);
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.evictions, 0u);

    std::size_t seen = 0;
    cache.forEach([&](std::string_view key, std::string_view value) {
        ++seen;
        if (key == "beta") {
            EXPECT_EQ(value, "value-b");
        }
    });
    EXPECT_EQ(seen, 3u);
}

TEST_F(ServeTest, ShmCachePersistsAcrossAttaches)
{
    ShmCache::Options o;
    o.name = "memo";
    o.keySchema = 1;
    o.slotCount = 16;
    o.arenaBytes = 1 << 16;
    {
        ShmCache cache(o);
        ASSERT_TRUE(cache.put("k", "persisted"));
    }
    ShmCache cache(o);
    EXPECT_FALSE(cache.wasRebuilt()); // valid header reattaches as-is
    std::string v;
    EXPECT_TRUE(cache.get("k", v));
    EXPECT_EQ(v, "persisted");
}

TEST_F(ServeTest, ShmCacheChecksumFailureReadsAsMissAndReclaims)
{
    ShmCache::Options o;
    o.name = "memo";
    o.keySchema = 1;
    o.slotCount = 16;
    o.arenaBytes = 1 << 16;
    const std::string key = "victim";
    {
        ShmCache cache(o);
        ASSERT_TRUE(cache.put(key, "payload"));
    }
    // First entry's value starts right after its key at the arena base.
    const std::uint64_t arena0 = 128 + 16ull * 64;
    flipByte(ShmCache::pathFor("memo"), arena0 + key.size());

    ShmCache cache(o);
    EXPECT_FALSE(cache.wasRebuilt()); // header is fine, one entry isn't
    std::string v;
    EXPECT_FALSE(cache.get(key, v));
    EXPECT_EQ(cache.stats().slotsUsed, 0u); // slot reclaimed

    // The reclaimed key is insertable and readable again.
    ASSERT_TRUE(cache.put(key, "replacement"));
    EXPECT_TRUE(cache.get(key, v));
    EXPECT_EQ(v, "replacement");
}

TEST_F(ServeTest, ShmCacheStaleHeaderRebuilds)
{
    ShmCache::Options o;
    o.name = "memo";
    o.keySchema = 1;
    o.slotCount = 16;
    o.arenaBytes = 1 << 16;
    {
        ShmCache cache(o);
        ASSERT_TRUE(cache.put("k", "old-schema"));
    }
    // A schema bump invalidates the whole segment.
    ShmCache::Options o2 = o;
    o2.keySchema = 2;
    {
        ShmCache cache(o2);
        EXPECT_TRUE(cache.wasRebuilt());
        std::string v;
        EXPECT_FALSE(cache.get("k", v));
        EXPECT_EQ(cache.stats().slotsUsed, 0u);
    }
    // So does a corrupted magic.
    flipByte(ShmCache::pathFor("memo"), 0);
    ShmCache cache(o2);
    EXPECT_TRUE(cache.wasRebuilt());
}

TEST_F(ServeTest, ResultCodecRoundtrip)
{
    ExperimentResult r;
    r.workload = "fft";
    r.config = "AO";
    r.protocol = "HLRC";
    r.parallelCycles = 123456789ull;
    r.sequentialCycles = 987654321ull;
    r.verified = true;
    r.hostSeconds = 1.5;
    r.stats.metrics.counters = {{"net.messages", 42},
                                {"proto.diffs", 7}};
    r.stats.metrics.gauges = {{"sim.events_per_sec", 1234.5}};
    HistogramData h;
    h.total = 10;
    h.buckets = {1, 0, 4, 5};
    r.stats.metrics.histograms = {{"net.latency", h}};

    const std::string blob = codec::encodeResult(r);
    EXPECT_TRUE(codec::isResultBlob(blob));

    ExperimentResult out;
    ASSERT_TRUE(codec::decodeResult(blob, out));
    EXPECT_EQ(out.workload, r.workload);
    EXPECT_EQ(out.config, r.config);
    EXPECT_EQ(out.protocol, r.protocol);
    EXPECT_EQ(out.parallelCycles, r.parallelCycles);
    EXPECT_EQ(out.sequentialCycles, r.sequentialCycles);
    EXPECT_EQ(out.verified, r.verified);
    EXPECT_EQ(out.hostSeconds, r.hostSeconds);
    EXPECT_EQ(out.stats.metrics.counters, r.stats.metrics.counters);
    EXPECT_EQ(out.stats.metrics.gauges, r.stats.metrics.gauges);
    ASSERT_EQ(out.stats.metrics.histograms.size(), 1u);
    EXPECT_EQ(out.stats.metrics.histograms[0].first, "net.latency");
    EXPECT_EQ(out.stats.metrics.histograms[0].second.total, h.total);
    EXPECT_EQ(out.stats.metrics.histograms[0].second.buckets, h.buckets);

    Cycles seq = 0;
    const std::string base = codec::encodeBaseline(424242);
    EXPECT_FALSE(codec::isResultBlob(base));
    ASSERT_TRUE(codec::decodeBaseline(base, seq));
    EXPECT_EQ(seq, 424242u);
}

TEST_F(ServeTest, ResultCodecRejectsMalformedBlobs)
{
    ExperimentResult r;
    r.workload = "w";
    const std::string blob = codec::encodeResult(r);

    ExperimentResult out;
    EXPECT_FALSE(codec::decodeResult("", out));
    EXPECT_FALSE(codec::decodeResult("SW", out));
    // Truncation and trailing garbage are both malformed.
    EXPECT_FALSE(
        codec::decodeResult({blob.data(), blob.size() - 1}, out));
    EXPECT_FALSE(codec::decodeResult(blob + "x", out));

    Cycles seq = 0;
    EXPECT_FALSE(codec::decodeBaseline(blob, seq)); // wrong magic
}

/** An in-process server on its own accept thread. */
struct ServerHandle
{
    std::unique_ptr<Server> server;
    std::thread thread;

    explicit ServerHandle(const ServerOptions &opts)
        : server(std::make_unique<Server>(opts))
    {
        thread = std::thread([this] { server->run(); });
    }

    ~ServerHandle()
    {
        server->stop();
        thread.join();
    }
};

ServerOptions
testServerOptions(const std::string &sock_path)
{
    ServerOptions opts;
    opts.sockPath = sock_path;
    opts.segment = "memo";
    opts.slotCount = 256;
    opts.arenaBytes = 8 << 20;
    opts.jobs = 2;
    opts.simThreads = 1;
    return opts;
}

wire::Request
fftRunRequest()
{
    wire::Request req;
    req.verb = "run";
    req.params = {{"app", "fft"},  {"size", "tiny"}, {"procs", "4"},
                  {"proto", "hlrc"}, {"comm", "A"},  {"cost", "O"}};
    return req;
}

TEST_F(ServeTest, ServerAnswersPingAndRejectsUnknownVerbs)
{
    ServerHandle h(testServerOptions(sock()));
    wire::Request req;
    req.verb = "ping";
    ServeResponse r = serveRequest(sock(), req);
    EXPECT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_NE(r.events[0].find("\"pong\""), std::string::npos);

    req.verb = "frobnicate";
    r = serveRequest(sock(), req);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
}

TEST_F(ServeTest, CacheHitReplayIsByteIdentical)
{
    ServerHandle h(testServerOptions(sock()));
    const ServeResponse r1 = serveRequest(sock(), fftRunRequest());
    ASSERT_TRUE(r1.ok) << r1.error;
    ASSERT_TRUE(r1.haveDone);
    EXPECT_EQ(r1.hits, 0u);
    EXPECT_EQ(r1.misses, 2u); // baseline + experiment
    EXPECT_FALSE(r1.report.empty());
    EXPECT_EQ(h.server->simRuns(), 2u);

    const ServeResponse r2 = serveRequest(sock(), fftRunRequest());
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.hits, 2u);
    EXPECT_EQ(r2.misses, 0u);
    EXPECT_EQ(h.server->simRuns(), 2u); // replay, no new simulations
    EXPECT_EQ(r1.report, r2.report);    // byte-identical BENCH doc
}

TEST_F(ServeTest, ConcurrentClientsSimulateOnce)
{
    ServerHandle h(testServerOptions(sock()));
    constexpr int kClients = 4;
    std::vector<ServeResponse> resp(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            resp[i] = serveRequest(sock(), fftRunRequest());
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        ASSERT_TRUE(resp[i].ok) << resp[i].error;
        EXPECT_EQ(resp[i].report, resp[0].report);
    }
    // In-flight dedup: one baseline + one experiment, no matter how
    // many clients raced for the same uncached configuration.
    EXPECT_EQ(h.server->simRuns(), 2u);
    EXPECT_EQ(h.server->metrics().counter("serve.sim_runs"), 2u);
    EXPECT_EQ(h.server->metrics().counter("serve.requests"),
              static_cast<std::uint64_t>(kClients));
}

TEST_F(ServeTest, CorruptSegmentIsRejectedAndRebuilt)
{
    const ServerOptions opts = testServerOptions(sock());
    {
        ServerHandle h(opts);
        const ServeResponse r = serveRequest(sock(), fftRunRequest());
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.misses, 2u);
    }
    flipByte(ShmCache::pathFor(opts.segment), 0); // smash the magic

    ServerHandle h(opts);
    EXPECT_TRUE(h.server->cache().wasRebuilt());
    const ServeResponse r1 = serveRequest(sock(), fftRunRequest());
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_EQ(r1.hits, 0u); // stale data is gone, not served
    EXPECT_EQ(r1.misses, 2u);
    EXPECT_EQ(h.server->simRuns(), 2u);

    const ServeResponse r2 = serveRequest(sock(), fftRunRequest());
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.hits, 2u);
    EXPECT_EQ(r1.report, r2.report);
}

TEST_F(ServeTest, SegmentFromAnOlderResultSchemaIsRebuilt)
{
    // A segment written under result schema 1 holds blobs whose metrics
    // snapshots carry counters the current machine no longer registers;
    // the server must wipe it on attach instead of replaying them.
    static_assert(codec::schemaVersion > 1);
    const ServerOptions opts = testServerOptions(sock());
    {
        ShmCache::Options co;
        co.name = opts.segment;
        co.keySchema = 1;
        co.slotCount = opts.slotCount;
        co.arenaBytes = opts.arenaBytes;
        ShmCache cache(co);
        ASSERT_TRUE(cache.put("stale", "schema-1 blob"));
    }

    ServerHandle h(opts);
    EXPECT_TRUE(h.server->cache().wasRebuilt());
    std::string v;
    EXPECT_FALSE(h.server->cache().get("stale", v));
    EXPECT_EQ(h.server->cache().stats().slotsUsed, 0u);
}

TEST_F(ServeTest, GridSecondPassIsAllHits)
{
    ServerHandle h(testServerOptions(sock()));
    wire::Request req;
    req.verb = "grid";
    req.params = {{"size", "tiny"}, {"procs", "4"}, {"apps", "fft"}};

    const ServeResponse r1 = serveRequest(sock(), req);
    ASSERT_TRUE(r1.ok) << r1.error;
    ASSERT_TRUE(r1.haveDone);
    EXPECT_EQ(r1.hits, 0u);
    EXPECT_GT(r1.misses, 0u);
    const std::uint64_t sims = h.server->simRuns();
    EXPECT_EQ(sims, r1.misses);

    const ServeResponse r2 = serveRequest(sock(), req);
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.misses, 0u); // acceptance: zero re-simulations
    EXPECT_EQ(r2.hits, r1.misses);
    EXPECT_EQ(h.server->simRuns(), sims);
    EXPECT_EQ(r1.report, r2.report);
}

// ---------------------------------------------------------------------
// Shared-memory job queue
// ---------------------------------------------------------------------

ShmQueue::Options
smallQueue(const char *name, std::uint32_t slots = 8)
{
    ShmQueue::Options o;
    o.name = name;
    o.slotCount = slots;
    return o;
}

TEST_F(ServeTest, ShmQueueLifecycleRoundtrip)
{
    ShmQueue q(smallQueue("jobq"));
    EXPECT_EQ(q.slotCount(), 8u);

    const std::string key = "tiny/p4/fft/hlrc/AO";
    ASSERT_TRUE(q.push(key));
    EXPECT_TRUE(q.contains(key));

    ShmQueue::Lease l;
    ASSERT_TRUE(q.tryPop(l));
    EXPECT_EQ(l.key, key);
    EXPECT_TRUE(q.contains(key)); // leased still counts as in flight
    EXPECT_TRUE(q.heartbeat(l));
    EXPECT_TRUE(q.complete(l));
    EXPECT_FALSE(q.contains(key));

    ShmQueue::Lease none;
    EXPECT_FALSE(q.tryPop(none));

    const ShmQueue::Stats st = q.stats();
    EXPECT_EQ(st.pushed, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.queued, 0u);
    EXPECT_EQ(st.leased, 0u);
}

TEST_F(ServeTest, ShmQueueFailureIsPickedUpExactlyOnce)
{
    ShmQueue q(smallQueue("jobq"));
    ASSERT_TRUE(q.push("tiny/baseline/fft"));
    ShmQueue::Lease l;
    ASSERT_TRUE(q.tryPop(l));
    ASSERT_TRUE(q.fail(l, "boom"));
    EXPECT_TRUE(q.contains("tiny/baseline/fft")); // failed = in flight

    std::string error;
    ASSERT_TRUE(q.takeFailure("tiny/baseline/fft", error));
    EXPECT_EQ(error, "boom");
    EXPECT_FALSE(q.takeFailure("tiny/baseline/fft", error));
    EXPECT_FALSE(q.contains("tiny/baseline/fft"));
    EXPECT_EQ(q.stats().failed, 1u);
}

TEST_F(ServeTest, ShmQueueRejectsOversizedKeysAndFullQueues)
{
    ShmQueue q(smallQueue("jobq", 2));
    EXPECT_FALSE(q.push(std::string(ShmQueue::maxKeyBytes + 1, 'k')));
    EXPECT_TRUE(q.push("a"));
    EXPECT_TRUE(q.push("b"));
    EXPECT_FALSE(q.push("c")); // full: every slot occupied
    EXPECT_EQ(q.stats().pushed, 2u);
}

TEST_F(ServeTest, ShmQueueReclaimRequeuesStaleLeaseAndFencesZombie)
{
    ShmQueue q(smallQueue("jobq"));
    ASSERT_TRUE(q.push("tiny/p4/fft/ideal"));
    ShmQueue::Lease dead;
    ASSERT_TRUE(q.tryPop(dead));

    // A live lease is not reclaimed.
    EXPECT_EQ(q.reclaimExpired(60000), 0);

    // Let the heartbeat go stale, then reclaim.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(q.reclaimExpired(1), 1);
    EXPECT_EQ(q.stats().reclaimed, 1u);
    EXPECT_EQ(q.stats().queued, 1u);

    // The job is leasable again; the zombie's old lease is fenced out
    // of every transition (the epoch moved on).
    ShmQueue::Lease fresh;
    ASSERT_TRUE(q.tryPop(fresh));
    EXPECT_EQ(fresh.key, dead.key);
    EXPECT_FALSE(q.heartbeat(dead));
    EXPECT_FALSE(q.complete(dead));
    EXPECT_FALSE(q.fail(dead, "late"));
    EXPECT_TRUE(q.complete(fresh));
    EXPECT_EQ(q.stats().completed, 1u);
}

TEST_F(ServeTest, ShmQueueIsSharedAcrossAttaches)
{
    ShmQueue producer(smallQueue("jobq"));
    ASSERT_TRUE(producer.push("tiny/baseline/lu"));

    ShmQueue consumer(smallQueue("jobq")); // second mapping, same file
    ShmQueue::Lease l;
    ASSERT_TRUE(consumer.tryPop(l));
    EXPECT_EQ(l.key, "tiny/baseline/lu");
    EXPECT_TRUE(consumer.complete(l));
    EXPECT_EQ(producer.stats().completed, 1u);
}

// ---------------------------------------------------------------------
// Worker job keys
// ---------------------------------------------------------------------

TEST_F(ServeTest, JobKeyRoundtripsEveryGrammarForm)
{
    JobSpec job;
    std::string err;

    ASSERT_TRUE(parseJobKey("tiny/baseline/fft", job, err)) << err;
    EXPECT_TRUE(job.baseline);
    EXPECT_EQ(job.item.app.name, "fft");
    EXPECT_EQ(job.size, SizeClass::Tiny);

    ASSERT_TRUE(parseJobKey("small/p8/fft/ideal", job, err)) << err;
    EXPECT_FALSE(job.baseline);
    EXPECT_TRUE(job.item.ideal);
    EXPECT_EQ(job.numProcs, 8);

    ASSERT_TRUE(parseJobKey("tiny/p4/fft/hlrc/AO", job, err)) << err;
    EXPECT_EQ(job.item.kind, ProtocolKind::Hlrc);
    EXPECT_EQ(job.item.commSet, 'A');
    EXPECT_EQ(job.item.protoSet, 'O');

    EXPECT_FALSE(parseJobKey("bogus", job, err));
    EXPECT_FALSE(parseJobKey("tiny/p4/nosuchapp/hlrc/AO", job, err));
    EXPECT_FALSE(parseJobKey("tiny/px/fft/hlrc/AO", job, err));
    EXPECT_FALSE(parseJobKey("tiny/p4/fft/hlrc/ZZ", job, err));
    EXPECT_FALSE(parseJobKey("tiny/p4/fft/mesi/AO", job, err));
}

// ---------------------------------------------------------------------
// Worker-process fan-out
// ---------------------------------------------------------------------

wire::Request
fftGridRequest()
{
    wire::Request req;
    req.verb = "grid";
    req.params = {{"size", "tiny"}, {"procs", "4"}, {"apps", "fft"}};
    return req;
}

/**
 * Strip the host-dependent report lines (wall-clock timing and the
 * serving host's scheduler settings) so reports produced by different
 * server instances can be byte-compared on everything deterministic.
 */
std::string
stripHostLines(const std::string &doc)
{
    std::istringstream in(doc);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"hostSeconds\"") != std::string::npos ||
            line.find("\"jobs\"") != std::string::npos ||
            line.find("\"simThreads\"") != std::string::npos)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

TEST_F(ServeTest, WorkerGridMatchesInProcessAndReplaysByteIdentical)
{
    // Reference: the classic in-process server.
    std::string refDoc;
    {
        ServerOptions ref = testServerOptions(dir_ + "/ref.sock");
        ref.segment = "memo_ref";
        ServerHandle h(ref);
        const ServeResponse r =
            serveRequest(ref.sockPath, fftGridRequest());
        ASSERT_TRUE(r.ok) << r.error;
        refDoc = r.report;
    }

    ServerOptions opts = testServerOptions(sock());
    opts.workers = 2;
    ServerHandle h(opts);
    ASSERT_EQ(h.server->workerPids().size(), 2u);
    ASSERT_NE(h.server->jobQueue(), nullptr);

    const ServeResponse r1 = serveRequest(sock(), fftGridRequest());
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_EQ(r1.hits, 0u);
    EXPECT_GT(r1.misses, 0u);
    // Every miss travelled through the queue, and the queue drains. A
    // straggler lease can outlive the request (a benign duplicate from
    // the server's bounded re-push when a job was mid-transition), so
    // poll briefly rather than demanding an instantaneous drain.
    ShmQueue::Stats qs{};
    for (int i = 0; i < 500; ++i) {
        qs = h.server->jobQueue()->stats();
        if (qs.queued == 0 && qs.leased == 0 &&
            qs.pushed == qs.completed + qs.failed)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(qs.pushed, r1.misses);
    EXPECT_EQ(qs.pushed, qs.completed + qs.failed);
    EXPECT_EQ(qs.queued, 0u);
    EXPECT_EQ(qs.leased, 0u);

    // Worker-computed results equal in-process results on everything
    // deterministic (host timing necessarily differs between runs).
    EXPECT_EQ(stripHostLines(r1.report), stripHostLines(refDoc));

    // Replay through the same server is byte-identical.
    const ServeResponse r2 = serveRequest(sock(), fftGridRequest());
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.misses, 0u);
    EXPECT_EQ(r1.report, r2.report);
}

TEST_F(ServeTest, KilledWorkerIsReclaimedAndGridStillCompletes)
{
    ServerOptions opts = testServerOptions(sock());
    opts.workers = 1;
    opts.leaseTimeoutMs = 300;
    opts.workerHeartbeatMs = 50;
    ServerHandle h(opts);
    ASSERT_EQ(h.server->workerPids().size(), 1u);
    const pid_t victim = h.server->workerPids()[0];

    // Kill the only worker shortly after the grid starts; the
    // supervisor must reclaim its lease and respawn a replacement, and
    // the request must still complete.
    std::thread killer([victim] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        ::kill(victim, SIGKILL);
    });
    const ServeResponse r = serveRequest(sock(), fftGridRequest());
    killer.join();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.misses, 0u);

    // A replacement worker is (eventually) registered.
    for (int i = 0; i < 100; ++i) {
        const std::vector<pid_t> pids = h.server->workerPids();
        if (pids.size() == 1 && pids[0] != victim)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const std::vector<pid_t> pids = h.server->workerPids();
    ASSERT_EQ(pids.size(), 1u);
    EXPECT_NE(pids[0], victim);

    // And the result set is still the full, correct one.
    const ServeResponse r2 = serveRequest(sock(), fftGridRequest());
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.misses, 0u);
    EXPECT_EQ(r.report, r2.report);
}

// ---------------------------------------------------------------------
// Shard protocol
// ---------------------------------------------------------------------

TEST_F(ServeTest, ShardSelectionIsAPartition)
{
    const std::vector<std::string> keys = {
        "fft/hlrc/AO",  "fft/hlrc/HB", "fft/sc/AO", "fft/ideal",
        "lu/hlrc/AO",   "lu/ideal",    "sor/hlrc/WB",
        "water/hlrc/XO"};
    for (std::uint32_t shards = 1; shards <= 5; ++shards) {
        for (const std::string &key : keys) {
            int owners = 0;
            for (std::uint32_t i = 0; i < shards; ++i)
                owners += shard::selects(key, shards, i) ? 1 : 0;
            EXPECT_EQ(owners, 1)
                << key << " with " << shards << " shards";
        }
    }
}

TEST_F(ServeTest, ShardPeerParsing)
{
    std::vector<shard::Peer> peers;
    std::string err;
    ASSERT_TRUE(
        shard::parsePeers("localhost:7070,10.0.0.2:8080", peers, err)) << err;
    ASSERT_EQ(peers.size(), 2u);
    EXPECT_EQ(peers[0].host, "localhost");
    EXPECT_EQ(peers[0].port, 7070);
    EXPECT_EQ(peers[1].host, "10.0.0.2");
    EXPECT_EQ(peers[1].port, 8080);

    EXPECT_FALSE(shard::parsePeers("", peers, err));
    EXPECT_FALSE(shard::parsePeers("noport", peers, err));
    EXPECT_FALSE(shard::parsePeers("host:0", peers, err));
    EXPECT_FALSE(shard::parsePeers("host:notaport", peers, err));
    EXPECT_FALSE(shard::parsePeers(":7070", peers, err));
}

/** Start a TCP-enabled server, probing a few ports for a free one. */
std::unique_ptr<ServerHandle>
startTcpServer(ServerOptions opts, int &port_out)
{
    const int base =
        20000 + static_cast<int>(::getpid() % 20000u) + port_out;
    for (int attempt = 0; attempt < 20; ++attempt) {
        opts.tcpPort = base + attempt * 37;
        try {
            auto h = std::make_unique<ServerHandle>(opts);
            port_out = opts.tcpPort;
            return h;
        } catch (const FatalError &) {
            // port in use; try the next candidate
        }
    }
    return nullptr;
}

TEST_F(ServeTest, ShardLoopbackMergeMatchesLocalGrid)
{
    // Reference report from a classic single-process grid.
    std::string refDoc;
    {
        ServerOptions ref = testServerOptions(dir_ + "/ref.sock");
        ref.segment = "memo_ref";
        ServerHandle h(ref);
        const ServeResponse r =
            serveRequest(ref.sockPath, fftGridRequest());
        ASSERT_TRUE(r.ok) << r.error;
        refDoc = r.report;
    }

    // Two loopback "hosts", each with a private memo segment.
    ServerOptions aOpts = testServerOptions(dir_ + "/a.sock");
    aOpts.segment = "memo_a";
    ServerOptions bOpts = testServerOptions(dir_ + "/b.sock");
    bOpts.segment = "memo_b";
    int portA = 0;
    auto a = startTcpServer(aOpts, portA);
    ASSERT_NE(a, nullptr);
    int portB = 1; // distinct probe base
    auto b = startTcpServer(bOpts, portB);
    ASSERT_NE(b, nullptr);

    // Coordinate through host A's unix socket.
    wire::Request req = fftGridRequest();
    req.verb = "shard";
    req.params["peers"] = "127.0.0.1:" + std::to_string(portA) +
        ",127.0.0.1:" + std::to_string(portB);
    const ServeResponse merged = serveRequest(aOpts.sockPath, req);
    ASSERT_TRUE(merged.ok) << merged.error;
    ASSERT_FALSE(merged.report.empty());

    // The merged report equals the local one on everything
    // deterministic; the header is pinned to jobs=1/simThreads=1.
    EXPECT_EQ(stripHostLines(merged.report), stripHostLines(refDoc));
    EXPECT_NE(merged.report.find("\"jobs\": 1"), std::string::npos);

    // Re-merging (now fully cached on both peers) is byte-identical,
    // and so is merging with the peer order flipped.
    const ServeResponse again = serveRequest(aOpts.sockPath, req);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(merged.report, again.report);

    req.params["peers"] = "127.0.0.1:" + std::to_string(portB) +
        ",127.0.0.1:" + std::to_string(portA);
    const ServeResponse flipped = serveRequest(bOpts.sockPath, req);
    ASSERT_TRUE(flipped.ok) << flipped.error;
    EXPECT_EQ(merged.report, flipped.report);
}

// ---------------------------------------------------------------------
// Client resilience
// ---------------------------------------------------------------------

TEST_F(ServeTest, ClientTimesOutOnAWedgedServer)
{
    // A listener that accepts and then never responds.
    const std::string path = dir_ + "/wedged.sock";
    const int lfd = wire::listenUnix(path);
    ASSERT_GE(lfd, 0);

    ClientOptions copts;
    copts.timeoutMs = 100;
    wire::Request req;
    req.verb = "ping";
    const auto t0 = std::chrono::steady_clock::now();
    const ServeResponse r = serveRequest(path, req, {}, copts);
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("stalled"), std::string::npos) << r.error;
    EXPECT_LT(elapsed.count(), 5000);
    ::close(lfd);
}

TEST_F(ServeTest, ClientRetriesUntilTheServerAppears)
{
    // No listener yet: the first attempts fail, then one succeeds
    // once the server comes up during the backoff window.
    ServerOptions opts = testServerOptions(sock());
    std::unique_ptr<ServerHandle> h;
    std::thread starter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        h = std::make_unique<ServerHandle>(opts);
    });

    ClientOptions copts;
    copts.retries = 20;
    copts.backoffMs = 25;
    wire::Request req;
    req.verb = "ping";
    const ServeResponse r = serveRequest(sock(), req, {}, copts);
    starter.join();
    EXPECT_TRUE(r.ok) << r.error;

    // Zero retries against a dead socket fails fast with a diagnostic.
    const ServeResponse dead =
        serveRequest(dir_ + "/nope.sock", req, {}, ClientOptions{});
    EXPECT_FALSE(dead.ok);
    EXPECT_NE(dead.error.find("cannot connect"), std::string::npos);
}

} // namespace
} // namespace swsm
