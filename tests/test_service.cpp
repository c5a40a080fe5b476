// The compile service (src/service/): wire protocol framing, the
// persistent content-addressed result cache, and the daemon end-to-end
// over a real Unix socket — cold/hot byte-identity, admission control,
// load shedding, corruption recovery, and graceful drain.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_report.h"
#include "sdf/diagnostics.h"
#include "sdf/io.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/qos.h"
#include "service/server.h"
#include "service/trace.h"
#include "service/transport.h"
#include "stats_doc.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/shutdown.h"

namespace sdf::svc {
namespace {

namespace fs = std::filesystem;
using sdf::testing::field;
using sdf::testing::stats_doc;
using sdf::testing::window_counter;

constexpr std::string_view kTinyGraph =
    "graph tiny\nactor A\nactor B\nedge A B 2 3\n";

/// A fresh scratch directory with a socket path short enough for
/// sockaddr_un (so TEST_TMPDIR-style deep paths cannot break binds).
struct Scratch {
  std::string dir;

  Scratch() {
    static int counter = 0;
    dir = "/tmp/sdfsvc_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++);
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  [[nodiscard]] std::string socket_path() const { return dir + "/d.sock"; }
  [[nodiscard]] std::string cache_dir() const { return dir + "/cache"; }
};

/// Runs a Server on its own thread; stops and joins on destruction.
struct RunningServer {
  explicit RunningServer(ServerOptions options) {
    util::reset_shutdown();
    server = std::make_unique<Server>(std::move(options));
    server->start();
    runner = std::thread([this] { server->run(); });
  }
  ~RunningServer() { stop(); }

  void stop() {
    if (runner.joinable()) {
      server->stop();
      runner.join();
    }
  }

  std::unique_ptr<Server> server;
  std::thread runner;
};

CompileRequest tiny_request() {
  CompileRequest req;
  req.graph_text = std::string(kTinyGraph);
  return req;
}

// ---------------------------------------------------------------- framing

TEST(Protocol, FrameRoundTrip) {
  const std::string wire =
      encode_frame(FrameKind::kCompileRequest, "payload bytes");
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(wire, &frame, &consumed), DecodeStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.kind, FrameKind::kCompileRequest);
  EXPECT_EQ(frame.payload, "payload bytes");
}

TEST(Protocol, DecodeIsIncremental) {
  const std::string wire = encode_frame(FrameKind::kPing, "tok");
  Frame frame;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_EQ(decode_frame(wire.substr(0, n), &frame, &consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << n;
  }
  EXPECT_EQ(decode_frame(wire, &frame, &consumed), DecodeStatus::kOk);
}

TEST(Protocol, RejectsBadMagicOnFirstDivergentByte) {
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame("GET / HTTP/1.1", &frame, &consumed),
            DecodeStatus::kBadMagic);
  // One wrong byte is enough — no need to buffer a full header.
  EXPECT_EQ(decode_frame("X", &frame, &consumed), DecodeStatus::kBadMagic);
}

TEST(Protocol, RejectsBadKindAndBadCrc) {
  std::string wire = encode_frame(FrameKind::kPong, "abc");
  Frame frame;
  std::size_t consumed = 0;

  std::string bad_kind = wire;
  bad_kind[7] = '\x63';  // kind byte well outside the enum
  EXPECT_EQ(decode_frame(bad_kind, &frame, &consumed),
            DecodeStatus::kBadKind);

  std::string bad_crc = wire;
  bad_crc.back() ^= 0x01;  // flip one payload byte; CRC now disagrees
  EXPECT_EQ(decode_frame(bad_crc, &frame, &consumed),
            DecodeStatus::kBadCrc);
}

TEST(Protocol, RejectsOversizedDeclaredLength) {
  std::string wire = encode_frame(FrameKind::kPing, "x");
  // Rewrite the length field to > kMaxPayloadBytes.
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  wire[8] = static_cast<char>(huge & 0xFF);
  wire[9] = static_cast<char>((huge >> 8) & 0xFF);
  wire[10] = static_cast<char>((huge >> 16) & 0xFF);
  wire[11] = static_cast<char>((huge >> 24) & 0xFF);
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(wire, &frame, &consumed), DecodeStatus::kTooLarge);
}

TEST(Protocol, CompileRequestRoundTrip) {
  CompileRequest req = tiny_request();
  req.options.order = OrderHeuristic::kApgan;
  req.options.optimizer = LoopOptimizer::kChainExact;
  req.options.allocation_order = FirstFitOrder::kByWidth;
  req.options.blocking_factor = 3;
  req.deadline_ms = 250;
  req.dp_mem_bytes = 1 << 20;

  const Result<CompileRequest> back =
      parse_compile_request(encode_compile_request(req));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().graph_text, req.graph_text);
  EXPECT_EQ(back.value().options.order, OrderHeuristic::kApgan);
  EXPECT_EQ(back.value().options.optimizer, LoopOptimizer::kChainExact);
  EXPECT_EQ(back.value().options.allocation_order, FirstFitOrder::kByWidth);
  EXPECT_EQ(back.value().options.blocking_factor, 3);
  EXPECT_EQ(back.value().deadline_ms, 250);
  EXPECT_EQ(back.value().dp_mem_bytes, 1 << 20);
  EXPECT_EQ(option_fingerprint(back.value()), option_fingerprint(req));
}

TEST(Protocol, CompileRequestValidation) {
  EXPECT_FALSE(parse_compile_request("not json").ok());
  EXPECT_FALSE(parse_compile_request("{\"graph\": \"g\"}").ok())
      << "missing schema must be rejected";
  const Result<CompileRequest> bad_opt = parse_compile_request(
      R"({"schema": "sdfmem.request.v1", "graph": "g",
          "options": {"optimizer": "warp"}})");
  ASSERT_FALSE(bad_opt.ok());
  EXPECT_EQ(bad_opt.error().code, ErrorCode::kBadArgument);
}

TEST(Protocol, CacheKeySeparatesGraphAndOptions) {
  const std::string fp_a = "order=rpmc;opt=sdppo";
  const std::string fp_b = "order=rpmc;opt=dppo";
  EXPECT_NE(cache_key("g1", fp_a), cache_key("g2", fp_a));
  EXPECT_NE(cache_key("g1", fp_a), cache_key("g1", fp_b));
  EXPECT_EQ(cache_key("g1", fp_a), cache_key("g1", fp_a));
  EXPECT_EQ(key_hex(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(key_hex(0), "0000000000000000");
}

// ----------------------------------------------------------------- cache

TEST(ResultCache, InsertLookupAndReopen) {
  Scratch scratch;
  const std::uint64_t key = cache_key("graph", "opts");
  {
    ResultCache cache(scratch.cache_dir());
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.insert(key, "response-bytes");
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "response-bytes");
    EXPECT_EQ(cache.stats().inserts, 1);
  }
  // A fresh process (new ResultCache) replays the index and still hits.
  ResultCache reopened(scratch.cache_dir());
  EXPECT_EQ(reopened.size(), 1u);
  const auto hit = reopened.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "response-bytes");
}

TEST(ResultCache, InsertIsFirstWriterWins) {
  Scratch scratch;
  ResultCache cache(scratch.cache_dir());
  const std::uint64_t key = 42;
  cache.insert(key, "first");
  cache.insert(key, "second");  // ignored: hot responses stay byte-stable
  EXPECT_EQ(cache.lookup(key).value_or(""), "first");
  EXPECT_EQ(cache.stats().inserts, 1);
}

TEST(ResultCache, CorruptObjectIsNeverServed) {
  Scratch scratch;
  const std::uint64_t key = cache_key("graph", "opts");
  ResultCache cache(scratch.cache_dir());
  cache.insert(key, "precious bytes");

  // Flip one byte in the stored object.
  const std::string path =
      scratch.cache_dir() + "/objects/" + key_hex(key) + ".json";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  EXPECT_FALSE(cache.lookup(key).has_value())
      << "a flipped byte must read as a miss, not as data";
  EXPECT_EQ(cache.stats().corrupt, 1);
  // The entry was dropped; a re-insert repairs the cache.
  cache.insert(key, "precious bytes");
  EXPECT_EQ(cache.lookup(key).value_or(""), "precious bytes");
}

TEST(ResultCache, TornIndexTailIsTruncatedOnReopen) {
  Scratch scratch;
  const std::uint64_t key = 7;
  {
    ResultCache cache(scratch.cache_dir());
    cache.insert(key, "kept");
  }
  // Simulate a crash mid-append: garbage after the last valid record.
  {
    std::ofstream out(scratch.cache_dir() + "/index.journal",
                      std::ios::binary | std::ios::app);
    out << "\x13\x37torn";
  }
  ResultCache reopened(scratch.cache_dir());
  EXPECT_EQ(reopened.lookup(key).value_or(""), "kept");
  // And the recovered journal accepts new appends.
  reopened.insert(9, "after-recovery");
  EXPECT_EQ(reopened.lookup(9).value_or(""), "after-recovery");
}

TEST(ResultCache, RejectsForeignJournal) {
  Scratch scratch;
  fs::create_directories(scratch.cache_dir());
  {
    std::ofstream out(scratch.cache_dir() + "/index.journal",
                      std::ios::binary);
    out << "not a journal at all";
  }
  EXPECT_THROW(ResultCache cache(scratch.cache_dir()), std::exception);
}

// ------------------------------------------------------------ end to end

TEST(Service, ColdThenHotAreByteIdentical) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  opts.jobs = 2;
  RunningServer running(opts);

  Client client({scratch.socket_path(), 0});
  const Result<std::string> cold = client.compile(tiny_request());
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  const Result<std::string> hot = client.compile(tiny_request());
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(cold.value(), hot.value())
      << "a cache hit must serve the exact bytes of the cold response";

  const obs::Json doc = obs::Json::parse(cold.value());
  ASSERT_NE(doc.find("results"), nullptr);
  const obs::Json& results = *doc.find("results");
  EXPECT_NE(results.find("schedule"), nullptr);
  EXPECT_GT(results.find("shared_size")->as_int(), 0);
  EXPECT_GT(results.find("nonshared_bufmem")->as_int(), 0);

  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(field(stats, "requests").as_int(), 2);
  EXPECT_EQ(window_counter(stats, "service.cache.hits"), 1);
  EXPECT_EQ(window_counter(stats, "service.cache.misses"), 1);
}

TEST(Service, HitSurvivesServerRestart) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();

  std::string cold;
  {
    RunningServer running(opts);
    Client client({scratch.socket_path(), 0});
    const Result<std::string> r = client.compile(tiny_request());
    ASSERT_TRUE(r.ok());
    cold = r.value();
  }
  RunningServer restarted(opts);
  Client client({scratch.socket_path(), 0});
  const Result<std::string> hot = client.compile(tiny_request());
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot.value(), cold);
  EXPECT_EQ(window_counter(stats_doc(*restarted.server), "service.cache.hits"),
            1);
}

TEST(Service, CorruptCacheEntryIsRecompiled) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});

  const Result<std::string> cold = client.compile(tiny_request());
  ASSERT_TRUE(cold.ok());

  // Flip a byte in the single stored object.
  std::string object;
  for (const auto& entry :
       fs::directory_iterator(scratch.cache_dir() + "/objects")) {
    object = entry.path().string();
  }
  ASSERT_FALSE(object.empty());
  std::string bytes;
  {
    std::ifstream in(object, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(object, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  const Result<std::string> again = client.compile(tiny_request());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), cold.value())
      << "the recompiled response must match the original, byte for byte";
}

TEST(Service, MalformedGraphGetsStructuredParseError) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});

  CompileRequest req;
  req.graph_text = "graph broken\nactor A\nedge A Missing 1 1\n";
  const Result<std::string> r = client.compile(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kParse);
  EXPECT_FALSE(r.error().message.empty());
}

TEST(Service, PingAndStats) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});
  EXPECT_TRUE(client.ping("are-you-there"));
  const obs::Json stats = obs::Json::parse(client.stats());
  ASSERT_NE(stats.find("schema"), nullptr);
  EXPECT_EQ(stats.find("schema")->as_string(), "sdfmem.stats.v1");
  ASSERT_NE(stats.find("requests"), nullptr);
}

TEST(Service, TcpListenerWorksOnEphemeralPort) {
  Scratch scratch;
  ServerOptions opts;
  opts.tcp_port = -1;  // ephemeral
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);
  ASSERT_GT(running.server->tcp_port(), 0);
  Client client({"", running.server->tcp_port()});
  const Result<std::string> r = client.compile(tiny_request());
  ASSERT_TRUE(r.ok()) << r.error().message;
}

TEST(Service, ZeroQueueShedsMissesButServesHits) {
  Scratch scratch;
  // Pre-warm the cache exactly like the server would key it.
  const CompileRequest req = tiny_request();
  const std::string canonical =
      write_graph_text(parse_graph_text(req.graph_text));
  const std::uint64_t key =
      cache_key(canonical, option_fingerprint(req));
  {
    ResultCache warm(scratch.cache_dir());
    warm.insert(key, "prewarmed-response");
  }

  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  opts.queue_capacity = 0;  // read-only replica: shed every miss
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});

  // The hit is served without admission (lookup precedes admit).
  const Result<std::string> hit = client.compile(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), "prewarmed-response");

  // A miss cannot be admitted and comes back typed `overloaded`.
  CompileRequest other = tiny_request();
  other.options.optimizer = LoopOptimizer::kDppo;
  const Result<std::string> miss = client.compile(other);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.error().code, ErrorCode::kOverloaded);
  EXPECT_EQ(exit_code_for(miss.error().code), 24);
  EXPECT_EQ(field(stats_doc(*running.server), "overloaded").as_int(), 1);
}

TEST(Service, HighLoadShedsToFlatTierAndSkipsCache) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  opts.queue_capacity = 4;      // capacity: 4000 ms of backlog
  opts.default_cost_ms = 1000;
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});

  CompileRequest req = tiny_request();
  req.options.optimizer = LoopOptimizer::kChainExact;
  req.deadline_ms = 3500;  // 3500/4000 >= 3/4: flat tier

  const Result<std::string> r = client.compile(req);
  ASSERT_TRUE(r.ok()) << r.error().message;
  const obs::Json doc = obs::Json::parse(r.value());
  const obs::Json& results = *doc.find("results");
  EXPECT_EQ(results.find("optimizer")->as_string(), "flat");
  EXPECT_EQ(results.find("requested_optimizer")->as_string(), "chainx");
  ASSERT_NE(results.find("load_shed"), nullptr);

  EXPECT_EQ(field(stats_doc(*running.server), "shed_degraded").as_int(), 1);
  // Shed responses are never cached: the same request compiles again.
  const Result<std::string> again = client.compile(req);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(window_counter(stats_doc(*running.server), "service.cache.misses"),
            2);
}

TEST(Service, BadFramingDropsConnectionWithError) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  RunningServer running(opts);

  // Raw socket: speak HTTP at the daemon and expect a framed error
  // followed by a close.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, scratch.socket_path().c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr), 0);
  const std::string junk = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));

  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // server closes after the error frame
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(reply, &frame, &consumed), DecodeStatus::kOk);
  EXPECT_EQ(frame.kind, FrameKind::kErrorResponse);
  const Diagnostic diag = parse_error_response(frame.payload);
  EXPECT_EQ(diag.code, ErrorCode::kBadArgument);
  EXPECT_NE(diag.message.find("bad-magic"), std::string::npos);
  EXPECT_EQ(field(stats_doc(*running.server), "bad_frames").as_int(), 1);
}

TEST(Service, DrainRemovesSocketAndRefusesNewConnections) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  auto running = std::make_unique<RunningServer>(opts);
  {
    Client client({scratch.socket_path(), 0});
    ASSERT_TRUE(client.compile(tiny_request()).ok());
  }
  running->stop();
  EXPECT_FALSE(fs::exists(scratch.socket_path()))
      << "a drained daemon must unlink its socket";
  EXPECT_THROW(Client client({scratch.socket_path(), 0}), IoError);
  // A drained daemon exits, releasing its cache flock with the process;
  // destroying the Server models that (single-writer contract,
  // service/cache.h).
  running.reset();

  // The cache index survived the drain: a restart hits immediately.
  RunningServer restarted(opts);
  Client client({scratch.socket_path(), 0});
  ASSERT_TRUE(client.compile(tiny_request()).ok());
  EXPECT_EQ(window_counter(stats_doc(*restarted.server), "service.cache.hits"),
            1);
}

// ---------------------------------------------------------------- tenancy

TEST(Protocol, TenantFieldNegotiatesSchemaVersion) {
  // No tenant: the wire payload stays at schema v1 with no tenant key,
  // so old servers keep accepting new clients.
  const CompileRequest v1 = tiny_request();
  const std::string v1_wire = encode_compile_request(v1);
  EXPECT_NE(v1_wire.find("sdfmem.request.v1"), std::string::npos);
  EXPECT_EQ(v1_wire.find("tenant"), std::string::npos);

  // A tenant id upgrades the payload to v2 and round-trips.
  CompileRequest v2 = tiny_request();
  v2.tenant = "team-a";
  const std::string v2_wire = encode_compile_request(v2);
  EXPECT_NE(v2_wire.find("sdfmem.request.v2"), std::string::npos);
  const Result<CompileRequest> back = parse_compile_request(v2_wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().tenant, "team-a");

  // The tenant never enters the option fingerprint: every tenant hits
  // the same shared cache entry and gets byte-identical responses.
  EXPECT_EQ(option_fingerprint(back.value()), option_fingerprint(v1));

  // Malformed tenant ids are rejected at parse time, typed kBadArgument.
  const Result<CompileRequest> bad = parse_compile_request(
      R"({"schema": "sdfmem.request.v2", "graph": "g", "tenant": "No!"})");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kBadArgument);
}

TEST(Service, UnknownTenantRejectedTyped) {
  Scratch scratch;
  ServerOptions opts;  // default registry: only `public`
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});

  CompileRequest req = tiny_request();
  req.tenant = "ghost";
  const Result<std::string> r = client.compile(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kUnknownTenant);
  EXPECT_EQ(exit_code_for(r.error().code), 25);
  EXPECT_NE(r.error().message.find("ghost"), std::string::npos);

  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(field(stats, "unknown_tenant").as_int(), 1);
  // Rejected before any work: no compile, no cache traffic, and no
  // stats entry minted for the unknown name (bounded cardinality).
  EXPECT_EQ(window_counter(stats, "service.cache.misses"), 0);
  EXPECT_EQ(field(stats, "tenants").find("ghost"), nullptr);
}

TEST(Service, OldProtocolClientLandsInPublic) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});

  // tiny_request() has no tenant, so the wire payload is schema v1 —
  // exactly what a pre-tenancy client sends.
  ASSERT_TRUE(client.compile(tiny_request()).ok());

  // The attribution is visible over the wire in the stats document.
  const obs::Json doc = obs::Json::parse(client.stats());
  EXPECT_EQ(field(doc, "tenants.public.requests").as_int(), 1);
  EXPECT_EQ(field(doc, "tenants.public.cache_misses").as_int(), 1);
  EXPECT_EQ(field(doc, "tenants.public.weight").as_double(), 1.0);
  EXPECT_EQ(field(doc, "tenants.public.latency.count").as_int(), 1);
}

TEST(Service, WeightedShareOverloadIsPerTenant) {
  Scratch scratch;
  const Result<qos::TenantRegistry> registry = qos::TenantRegistry::parse(
      R"({"schema": "sdfmem.tenants.v1",
          "tenants": {"hog": {"weight": 1}, "light": {"weight": 3}}})");
  ASSERT_TRUE(registry.ok()) << registry.error().message;

  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.queue_capacity = 4;  // 4 x 1000 ms = 4000 ms total capacity
  opts.default_cost_ms = 1000;
  opts.tenants = registry.value();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});

  // Total weight is public(1) + hog(1) + light(3) = 5, so hog's share
  // is 4000/5 = 800 ms and light's is 4000*3/5 = 2400 ms. The same
  // 1500 ms request overloads hog but is admitted for light.
  CompileRequest req = tiny_request();
  req.deadline_ms = 1500;

  req.tenant = "hog";
  const Result<std::string> hog = client.compile(req);
  ASSERT_FALSE(hog.ok());
  EXPECT_EQ(hog.error().code, ErrorCode::kOverloaded);
  EXPECT_EQ(exit_code_for(hog.error().code), 24);
  EXPECT_NE(hog.error().message.find("hog"), std::string::npos)
      << "the rejection must name the tenant that exceeded its share";

  req.tenant = "light";
  const Result<std::string> light = client.compile(req);
  ASSERT_TRUE(light.ok()) << light.error().message;

  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(field(stats, "tenants.hog.overloaded").as_int(), 1);
  EXPECT_EQ(field(stats, "tenants.light.overloaded").as_int(), 0);
  EXPECT_EQ(field(stats, "overloaded").as_int(), 1);
}

TEST(Service, CacheQuotaDeniesInsertButServesSharedHits) {
  Scratch scratch;
  const Result<qos::TenantRegistry> registry = qos::TenantRegistry::parse(
      R"({"schema": "sdfmem.tenants.v1",
          "tenants": {"small": {"cache_quota_bytes": 1}}})");
  ASSERT_TRUE(registry.ok()) << registry.error().message;

  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  opts.tenants = registry.value();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});

  // `small`'s compile succeeds, but its 1-byte quota blocks the insert:
  // the same request misses again.
  CompileRequest req = tiny_request();
  req.tenant = "small";
  const Result<std::string> first = client.compile(req);
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_TRUE(client.compile(req).ok());
  {
    const obs::Json stats = stats_doc(*running.server);
    EXPECT_EQ(field(stats, "tenants.small.cache_misses").as_int(), 2);
    EXPECT_EQ(field(stats, "tenants.small.cache_quota_denied").as_int(), 2);
    EXPECT_EQ(field(stats, "tenants.small.cache_inserts").as_int(), 0);
  }

  // `public` (unlimited quota) populates the shared cache...
  CompileRequest pub = tiny_request();
  const Result<std::string> warmed = client.compile(pub);
  ASSERT_TRUE(warmed.ok());
  EXPECT_EQ(warmed.value(), first.value())
      << "identical requests stay byte-identical across tenants";

  // ...and `small` now hits it: reads are never quota-gated.
  const Result<std::string> hit = client.compile(req);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), first.value());
  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(field(stats, "tenants.small.cache_hits").as_int(), 1);
  EXPECT_EQ(field(stats, "tenants.public.cache_inserts").as_int(), 1);
}

TEST(Service, ShutdownFlagDrainsRunLoop) {
  // The process-wide shutdown flag (SIGINT/SIGTERM path) must stop the
  // accept loop just like stop().
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  util::reset_shutdown();
  Server server(opts);
  server.start();
  std::thread runner([&] { server.run(); });
  util::request_shutdown(15);
  runner.join();
  util::reset_shutdown();
  SUCCEED();
}

// ----------------------------------------------------- fleet foundations

// The single-writer contract (service/cache.h): opening a cache dir that
// another ResultCache already holds is a typed IoError, never silent
// index interleaving. The flock dies with its holder, so the dir is
// reusable the moment the first cache is gone.
TEST(ResultCache, SecondOpenOfLockedDirIsATypedError) {
  Scratch scratch;
  {
    ResultCache first(scratch.cache_dir());
    first.insert(1, "doc");
    try {
      ResultCache second(scratch.cache_dir());
      FAIL() << "second open of a locked cache dir did not throw";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("locked by another process"),
                std::string::npos)
          << e.what();
    }
  }
  // Lock released with the first cache: reopening now succeeds.
  ResultCache reopened(scratch.cache_dir());
  EXPECT_EQ(reopened.lookup(1).value_or(""), "doc");
}

TEST(Service, TwoWorkersSharingACacheDirRefuseToStart) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);

  // A second worker misconfigured onto the same --cache dir fails its
  // construction with the typed locking error (exit 12 via the CLI).
  ServerOptions second = opts;
  second.socket_path = scratch.dir + "/d2.sock";
  EXPECT_THROW(Server other(second), IoError);
}

// ---------------------------------------------------------- peer frames

Frame raw_roundtrip(const std::string& socket_path, FrameKind kind,
                    std::string_view payload) {
  const int fd = connect_unix(socket_path);
  send_all_or_throw(fd, encode_frame(kind, payload));
  FrameReader reader;
  Frame reply;
  EXPECT_EQ(reader.read(fd, &reply), ReadOutcome::kFrame);
  ::close(fd);
  return reply;
}

std::uint64_t tiny_cache_key() {
  const CompileRequest req = tiny_request();
  return cache_key(write_graph_text(parse_graph_text(req.graph_text)),
                   option_fingerprint(req));
}

TEST(Service, PeerLookupServesExactCachedBytesAndMissesEmpty) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);

  Client client({scratch.socket_path(), 0});
  const Result<std::string> cold = client.compile(tiny_request());
  ASSERT_TRUE(cold.ok());

  // A peer lookup for the key the compile populated returns the exact
  // response bytes; an unknown key returns the unambiguous empty miss.
  const Frame hit = raw_roundtrip(scratch.socket_path(),
                                  FrameKind::kPeerLookupRequest,
                                  encode_peer_lookup(tiny_cache_key()));
  ASSERT_EQ(hit.kind, FrameKind::kPeerLookupResponse);
  EXPECT_EQ(hit.payload, cold.value());

  const Frame miss = raw_roundtrip(scratch.socket_path(),
                                   FrameKind::kPeerLookupRequest,
                                   encode_peer_lookup(0xdeadu));
  ASSERT_EQ(miss.kind, FrameKind::kPeerLookupResponse);
  EXPECT_TRUE(miss.payload.empty());

  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(field(stats, "peer.lookups").as_int(), 2);
  EXPECT_EQ(field(stats, "peer.lookup_hits").as_int(), 1);
}

TEST(Service, PeerInsertIsDurableAndServedBack) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  const std::string doc = "{\"schema\":\"sdfmem.telemetry.v1\"}";
  {
    RunningServer running(opts);
    const Frame ack = raw_roundtrip(scratch.socket_path(),
                                    FrameKind::kPeerInsertRequest,
                                    encode_peer_insert(42, doc));
    ASSERT_EQ(ack.kind, FrameKind::kPeerInsertResponse);
    const Frame hit = raw_roundtrip(scratch.socket_path(),
                                    FrameKind::kPeerLookupRequest,
                                    encode_peer_lookup(42));
    ASSERT_EQ(hit.kind, FrameKind::kPeerLookupResponse);
    EXPECT_EQ(hit.payload, doc);
    EXPECT_EQ(field(stats_doc(*running.server), "peer.inserts").as_int(), 1);
  }
  // Durable: the warmed entry survives a worker restart (disk tier, not
  // just the hot tier).
  RunningServer restarted(opts);
  const Frame hit = raw_roundtrip(scratch.socket_path(),
                                  FrameKind::kPeerLookupRequest,
                                  encode_peer_lookup(42));
  ASSERT_EQ(hit.kind, FrameKind::kPeerLookupResponse);
  EXPECT_EQ(hit.payload, doc);
}

TEST(Service, PeerInsertWithoutCacheIsATypedError) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();  // no cache_dir
  RunningServer running(opts);

  const Frame reply = raw_roundtrip(scratch.socket_path(),
                                    FrameKind::kPeerInsertRequest,
                                    encode_peer_insert(7, "doc"));
  EXPECT_EQ(reply.kind, FrameKind::kErrorResponse);

  // Malformed peer payloads are typed errors too, not closed sockets.
  const Frame bad = raw_roundtrip(scratch.socket_path(),
                                  FrameKind::kPeerLookupRequest,
                                  "{\"schema\":\"wrong.v9\"}");
  EXPECT_EQ(bad.kind, FrameKind::kErrorResponse);
}

TEST(Service, HotTierServesRepeatHitsFromMemory) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);

  Client client({scratch.socket_path(), 0});
  const Result<std::string> cold = client.compile(tiny_request());
  ASSERT_TRUE(cold.ok());
  const Result<std::string> hot = client.compile(tiny_request());
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot.value(), cold.value());

  // The repeat was served by the in-memory tier (the compile's
  // cache_store warmed it), and the combined "hits" counter keeps its
  // pre-fleet served-from-cache meaning.
  const obs::Json doc = obs::Json::parse(client.stats());
  const obs::Json& cache = *doc.find("cache");
  EXPECT_EQ(cache.find("hot_hits")->as_int(), 1);
  EXPECT_EQ(cache.find("hits")->as_int(), 1);
  EXPECT_GE(cache.find("hot_bytes")->as_int(), 1);
}

TEST(Service, HotTierDisabledStillServesFromDisk) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  opts.hot_tier_bytes = 0;  // --hot-mb 0
  RunningServer running(opts);

  Client client({scratch.socket_path(), 0});
  const Result<std::string> cold = client.compile(tiny_request());
  ASSERT_TRUE(cold.ok());
  const Result<std::string> hot = client.compile(tiny_request());
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot.value(), cold.value());
  EXPECT_EQ(window_counter(stats_doc(*running.server), "service.cache.hits"),
            1);
}

// ------------------------------------------------- parse-free hot hit

/// A server with a cache and (by default) a hot tier.
ServerOptions cached_options(const Scratch& scratch) {
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  return opts;
}

/// Disarms fault injection however the test exits.
struct FaultGuard {
  ~FaultGuard() { fault::clear(); }
};

/// kTinyGraph with a comment and extra blanks: the same graph, but not
/// the canonical text, so it always parses.
constexpr std::string_view kTinyGraphLoose =
    "# tiny, hand-written\ngraph tiny\nactor  A\nactor B\n"
    "edge A   B 2 3\n";

TEST(ParseFreeHit, CanonicalRepeatServesTheSlowHitsBytesAndCounts) {
  Scratch scratch;
  RunningServer running(cached_options(scratch));
  Client client({scratch.socket_path(), 0});

  // Miss, then a hit that parses (and attaches the text), then hits
  // that skip the parse.
  std::vector<std::string> responses;
  for (int i = 0; i < 4; ++i) {
    const Result<std::string> r = client.compile(tiny_request());
    ASSERT_TRUE(r.ok()) << r.error().message;
    responses.push_back(r.value());
  }
  for (const std::string& r : responses) EXPECT_EQ(r, responses[0]);

  // Every counter reads as if each repeat had parsed: the probes that
  // found no attached text counted nothing.
  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(field(stats, "requests").as_int(), 4);
  EXPECT_EQ(window_counter(stats, "service.cache.hits"), 3);
  EXPECT_EQ(window_counter(stats, "service.cache.misses"), 1);
  EXPECT_EQ(field(stats, "cache.hits").as_int(), 3);
  EXPECT_EQ(field(stats, "cache.misses").as_int(), 1);
  EXPECT_EQ(field(stats, "cache.hot_hits").as_int(), 3);
  EXPECT_EQ(field(stats, "cache.hot_misses").as_int(), 1);
  EXPECT_EQ(field(stats, "tenants.public.requests").as_int(), 4);
  EXPECT_EQ(field(stats, "tenants.public.cache_hits").as_int(), 3);
  EXPECT_EQ(field(stats, "tenants.public.cache_misses").as_int(), 1);
  // The resident entry holds the payload plus the canonical text.
  EXPECT_EQ(field(stats, "cache.hot_bytes").as_int(),
            static_cast<std::int64_t>(responses[0].size() +
                                      kTinyGraph.size()));

  // An armed parse fault proves which requests parse: the canonical
  // repeat does not; the same graph written loosely does.
  const FaultGuard guard;
  fault::configure("parse_oom:1", 1);
  const Result<std::string> fast = client.compile(tiny_request());
  ASSERT_TRUE(fast.ok()) << fast.error().message;
  EXPECT_EQ(fast.value(), responses[0]);
  EXPECT_EQ(fault::fire_count("parse_oom"), 0);
  CompileRequest loose = tiny_request();
  loose.graph_text = std::string(kTinyGraphLoose);
  EXPECT_FALSE(client.compile(loose).ok());
  EXPECT_EQ(fault::fire_count("parse_oom"), 1);
}

TEST(ParseFreeHit, NonCanonicalTextStillHitsThroughTheParse) {
  Scratch scratch;
  RunningServer running(cached_options(scratch));
  Client client({scratch.socket_path(), 0});
  CompileRequest loose = tiny_request();
  loose.graph_text = std::string(kTinyGraphLoose);

  const Result<std::string> cold = client.compile(tiny_request());
  ASSERT_TRUE(cold.ok());
  for (int i = 0; i < 3; ++i) {
    const Result<std::string> hit = client.compile(loose);
    ASSERT_TRUE(hit.ok()) << hit.error().message;
    EXPECT_EQ(hit.value(), cold.value());
  }
  const Result<std::string> canonical = client.compile(tiny_request());
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(canonical.value(), cold.value());

  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(window_counter(stats, "service.cache.hits"), 4);
  EXPECT_EQ(window_counter(stats, "service.cache.misses"), 1);
}

TEST(ParseFreeHit, SameTextWithOtherOptionsMisses) {
  Scratch scratch;
  RunningServer running(cached_options(scratch));
  Client client({scratch.socket_path(), 0});
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.compile(tiny_request()).ok());

  CompileRequest other = tiny_request();
  other.dp_mem_bytes = 1 << 30;  // a different option fingerprint
  const Result<std::string> r = client.compile(other);
  ASSERT_TRUE(r.ok()) << r.error().message;

  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(window_counter(stats, "service.cache.hits"), 2);
  EXPECT_EQ(window_counter(stats, "service.cache.misses"), 2);
}

TEST(ParseFreeHit, ScrubberQuarantineStopsTheFastHit) {
  Scratch scratch;
  ServerOptions opts = cached_options(scratch);
  opts.scrub_interval_ms = 20;
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});
  std::string cold;
  for (int i = 0; i < 3; ++i) {
    const Result<std::string> r = client.compile(tiny_request());
    ASSERT_TRUE(r.ok());
    cold = r.value();
  }

  // Rot the one disk object; the scrubber quarantines it and drops the
  // hot entry, attached text included.
  const std::string hex =
      field(obs::Json::parse(cold), "request.key").as_string();
  {
    std::ofstream out(scratch.cache_dir() + "/objects/" + hex + ".json",
                      std::ios::trunc);
    out << "CORRUPT";
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (field(stats_doc(*running.server), "cache.hot_entries").as_int() >
             0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const obs::Json quarantined = stats_doc(*running.server);
  ASSERT_EQ(field(quarantined, "cache.hot_entries").as_int(), 0);
  EXPECT_EQ(field(quarantined, "cache.hot_bytes").as_int(), 0);

  // The canonical repeat no longer fast-hits: it recompiles, byte for
  // byte the same.
  const Result<std::string> again = client.compile(tiny_request());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), cold);
  EXPECT_EQ(window_counter(stats_doc(*running.server), "service.cache.misses"),
            2);
}

TEST(ParseFreeHit, CacheReadFaultDegradesTheFastHitLikeALookup) {
  Scratch scratch;
  RunningServer running(cached_options(scratch));
  Client client({scratch.socket_path(), 0});
  std::string cold;
  for (int i = 0; i < 2; ++i) {
    const Result<std::string> r = client.compile(tiny_request());
    ASSERT_TRUE(r.ok());
    cold = r.value();
  }

  // The fault voids the matched hot copy: one hot miss, then the
  // verified disk read serves the same bytes, as for a plain lookup.
  const FaultGuard guard;
  fault::configure("svc_cache_read:1", 7);
  const Result<std::string> degraded = client.compile(tiny_request());
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.value(), cold);
  EXPECT_EQ(fault::fire_count("svc_cache_read"), 1);

  const obs::Json stats = stats_doc(*running.server);
  EXPECT_EQ(field(stats, "cache.hot_hits").as_int(), 1);
  EXPECT_EQ(field(stats, "cache.hot_misses").as_int(), 2);
  EXPECT_EQ(field(stats, "cache.hits").as_int(), 2);  // 1 hot + 1 disk
  EXPECT_EQ(window_counter(stats, "service.cache.hits"), 2);
  EXPECT_EQ(window_counter(stats, "service.cache.misses"), 1);
}

TEST(ParseFreeHit, TraceLinesOfFastAndSlowHitsAgree) {
  Scratch scratch;
  const std::string trace_path = scratch.dir + "/requests.trace";
  {
    ServerOptions opts = cached_options(scratch);
    opts.record_path = trace_path;
    RunningServer running(opts);
    Client client({scratch.socket_path(), 0});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(client.compile(tiny_request()).ok());
    }
  }  // stop() drains before the journal handle closes

  const Trace trace = read_trace(trace_path);
  ASSERT_EQ(trace.records.size(), 3u);
  const TraceRecord& miss = trace.records[0];
  const TraceRecord& slow = trace.records[1];
  const TraceRecord& fast = trace.records[2];
  EXPECT_EQ(slow.outcome, "hit");
  EXPECT_EQ(fast.outcome, "hit");
  for (const TraceRecord* hit : {&slow, &fast}) {
    EXPECT_EQ(hit->key_hex, miss.key_hex);
    EXPECT_EQ(hit->actors, 2);
    EXPECT_EQ(hit->response_hash, miss.response_hash);
    EXPECT_TRUE(hit->full_fidelity);
    EXPECT_EQ(hit->wall_ns, 0);
  }
}

// --------------------------------------------------- adaptive control

TEST(Service, RecordedTraceReplaysTheRequestStream) {
  Scratch scratch;
  const std::string trace_path = scratch.dir + "/requests.trace";
  std::string cold;
  {
    ServerOptions opts;
    opts.socket_path = scratch.socket_path();
    opts.cache_dir = scratch.cache_dir();
    opts.record_path = trace_path;
    RunningServer running(opts);
    Client client({scratch.socket_path(), 0});
    const Result<std::string> miss = client.compile(tiny_request());
    ASSERT_TRUE(miss.ok());
    cold = miss.value();
    const Result<std::string> hit = client.compile(tiny_request());
    ASSERT_TRUE(hit.ok());
  }  // stop() drains before the journal handle closes

  const Trace trace = read_trace(trace_path);
  ASSERT_EQ(trace.records.size(), 2u);
  const TraceRecord& miss = trace.records[0];
  const TraceRecord& hit = trace.records[1];
  EXPECT_EQ(miss.outcome, "ok");
  EXPECT_EQ(hit.outcome, "hit");
  EXPECT_GE(hit.tick_us, miss.tick_us);
  EXPECT_EQ(miss.tenant, "public");
  EXPECT_EQ(miss.actors, 2);
  EXPECT_GT(miss.wall_ns, 0);  // a real compile ran and was measured
  EXPECT_EQ(hit.wall_ns, 0);   // a hit compiles nothing

  // Full-fidelity responses carry the byte-identity hash replay checks.
  EXPECT_TRUE(miss.full_fidelity);
  EXPECT_EQ(miss.response_hash, key_hex(util::fnv1a64(cold)));
  EXPECT_EQ(hit.response_hash, miss.response_hash);

  // The recorded payload is the exact request, ready for re-issue.
  const Result<CompileRequest> replayed = parse_compile_request(miss.request);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().graph_text, kTinyGraph);
  EXPECT_FALSE(miss.key_hex.empty());
  EXPECT_EQ(miss.key_hex, hit.key_hex);
}

TEST(Service, StatsExposeControlPlaneAndCostModel) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});
  ASSERT_TRUE(client.compile(tiny_request()).ok());

  const obs::Json doc = obs::Json::parse(client.stats());
  ASSERT_NE(doc.find("control"), nullptr);
  const obs::Json& control = *doc.find("control");
  EXPECT_EQ(control.find("schema")->as_string(), "sdfmem.controlstats.v1");
  // Default daemon: controller off, static admission costs, no recording.
  EXPECT_FALSE(control.find("enabled")->as_bool());
  const obs::Json& cost = *control.find("cost_model");
  EXPECT_EQ(cost.find("source")->as_string(), "static");
  EXPECT_FALSE(control.find("recording")->find("active")->as_bool());

  // The model measures even while the controller is off: the compile
  // above seeded the 2-actor bucket with its real wall time.
  std::int64_t samples = 0;
  for (const obs::Json& bucket : cost.find("buckets")->elements()) {
    samples += bucket.find("samples")->as_int();
  }
  EXPECT_EQ(samples, 1);

  // The interval window rides along in the same document.
  ASSERT_NE(doc.find("window"), nullptr);
  EXPECT_EQ(doc.find("window")->find("requests")->as_int(), 1);
}

TEST(Service, StatsReadsChangeNothing) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  RunningServer running(opts);
  Client client({scratch.socket_path(), 0});
  ASSERT_TRUE(client.compile(tiny_request()).ok());  // miss
  ASSERT_TRUE(client.compile(tiny_request()).ok());  // hit

  // Two reads with no traffic between them: the controller is off, so
  // the window covers the time since start and only window_ms moves.
  const obs::Json first = obs::Json::parse(client.stats());
  const obs::Json second = obs::Json::parse(client.stats());
  obs::Json w1 = *first.find("window");
  obs::Json w2 = *second.find("window");
  w1["window_ms"] = 0;
  w2["window_ms"] = 0;
  EXPECT_TRUE(w1 == w2) << w1.dump(2) << "\n" << w2.dump(2);
  EXPECT_EQ(w1.find("requests")->as_int(), 2);
  EXPECT_EQ(w1.find("cache_hits")->as_int(), 1);
  EXPECT_EQ(w1.find("latency")->find("count")->as_int(), 2);
  // The counters come from the registry, with the telemetry session off.
  const obs::Json& counters = *w1.find("counters");
  EXPECT_EQ(counters.find("service.requests")->as_int(), 2);
  EXPECT_EQ(counters.find("service.cache.hits")->as_int(), 1);
  EXPECT_EQ(counters.find("service.tenant.public.cache_misses")->as_int(), 1);
  EXPECT_EQ(counters.find("service.cache.inserts")->as_int(), 1);
  // Lifetime totals agree with the window.
  EXPECT_EQ(second.find("requests")->as_int(), 2);
}

TEST(Service, ControlTickMovesTheAdmissionKnobs) {
  Scratch scratch;
  ServerOptions opts;
  opts.socket_path = scratch.socket_path();
  opts.cache_dir = scratch.cache_dir();
  opts.control = true;
  opts.control_interval_ms = 3'600'000;  // tick manually, not on a timer
  RunningServer running(opts);
  ASSERT_TRUE(running.server->control_enabled());

  // An idle window is "quiet": the controller must hold every knob.
  const ctl::Decision quiet = running.server->control_tick();
  EXPECT_EQ(quiet.reason, "quiet");
  EXPECT_EQ(quiet.knobs.capped_x1000, 500);

  // Shed-heavy windows (driven synthetically through the public tick so
  // the test owns the metrics) walk the real admission trip points.
  Client client({scratch.socket_path(), 0});
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.compile(tiny_request()).ok());
  }
  const ctl::Decision busy = running.server->control_tick();
  EXPECT_EQ(busy.reason, "hold");  // healthy traffic: no knee-jerk moves

  const obs::Json doc = obs::Json::parse(client.stats());
  const obs::Json& control = *doc.find("control");
  EXPECT_TRUE(control.find("enabled")->as_bool());
  EXPECT_GE(control.find("ticks")->as_int(), 2);
  EXPECT_EQ(control.find("cost_model")->find("source")->as_string(), "ewma");
  EXPECT_EQ(control.find("capped_x1000")->as_int(), 500);
  EXPECT_EQ(control.find("degraded_x1000")->as_int(), 750);
}

}  // namespace
}  // namespace sdf::svc
