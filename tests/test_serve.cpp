// capart_serve subsystem tests: the HTTP parser against well-formed,
// malformed, pipelined and oversized input; the admission controller's
// bounded-queue / drain semantics; the LRU result cache; and an end-to-end
// daemon on an ephemeral port — submit, byte-identical cache hit, 429 under
// load, live event streaming, 503 + clean completion across a drain.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/admission.hpp"
#include "src/serve/http.hpp"
#include "src/serve/result_cache.hpp"
#include "src/serve/server.hpp"

namespace capart::serve {
namespace {

// ---------------------------------------------------------------- parser --

TEST(HttpParser, ParsesARequestWithBodyAndNormalizesHeaderNames) {
  HttpRequestParser parser;
  parser.feed(
      "POST /run?stream=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "CONTENT-LENGTH: 4\r\n"
      "\r\n"
      "{}ab");
  ASSERT_TRUE(parser.done());
  EXPECT_FALSE(parser.failed());
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path(), "/run");
  EXPECT_EQ(request.query(), "stream=1");
  EXPECT_TRUE(request.query_flag("stream"));
  EXPECT_FALSE(request.query_flag("str"));
  EXPECT_EQ(request.body, "{}ab");
  EXPECT_EQ(request.header("content-type"), "application/json");
  EXPECT_EQ(request.header("Content-Type"), "application/json");
  EXPECT_FALSE(request.wants_close());
}

TEST(HttpParser, AssemblesAcrossByteAtATimeFeeds) {
  const std::string wire =
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  HttpRequestParser parser;
  for (const char ch : wire) {
    ASSERT_FALSE(parser.failed());
    parser.feed(std::string_view(&ch, 1));
  }
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_TRUE(parser.request().wants_close());
}

TEST(HttpParser, SurfacesPipelinedRequestsInTurn) {
  HttpRequestParser parser;
  parser.feed(
      "POST /run HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
      "GET /healthz HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().body, "hi");
  parser.reset();
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_TRUE(parser.request().body.empty());
  parser.reset();
  EXPECT_FALSE(parser.done());
  EXPECT_FALSE(parser.failed());
}

TEST(HttpParser, RejectsOversizedBodiesWith413) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  HttpRequestParser parser(limits);
  parser.feed("POST /run HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, RejectsHeaderFloodsWith431) {
  HttpLimits limits;
  limits.max_headers = 4;
  HttpRequestParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 6; ++i) {
    wire += "X-H" + std::to_string(i) + ": v\r\n";
  }
  parser.feed(wire);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, RejectsMalformedInputWith400) {
  for (const char* wire :
       {"GARBAGE\r\n\r\n", "GET / HTTP/2.0\r\n\r\n",
        "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        "POST / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n",
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"}) {
    HttpRequestParser parser;
    parser.feed(wire);
    EXPECT_TRUE(parser.failed()) << wire;
    EXPECT_TRUE(parser.error_status() == 400 ||
                parser.error_status() == 505)
        << wire << " -> " << parser.error_status();
  }
}

TEST(HttpParser, FailureIsTerminalAcrossFeedAndReset) {
  // The keep-alive poisoning regression: after a parse error the stream is
  // desynced, so a pipelined follow-up must never surface as a request.
  struct Case {
    const char* wire;
    int status;
  };
  const Case cases[] = {
      {"GARBAGE\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", 413},
      {"GET / HTTP/1.1\r\nH1: v\r\nH2: v\r\nH3: v\r\nH4: v\r\nH5: v\r\n", 431},
  };
  for (const Case& c : cases) {
    HttpLimits limits;
    limits.max_body_bytes = 16;
    limits.max_headers = 3;
    HttpRequestParser parser(limits);
    // The bad request and a perfectly valid pipelined follow-up arrive in
    // one read, as a real client would send them.
    parser.feed(std::string(c.wire) + "GET /healthz HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(parser.failed()) << c.wire;
    EXPECT_EQ(parser.error_status(), c.status) << c.wire;
    // Neither reset() nor more bytes may revive the stream.
    parser.reset();
    EXPECT_TRUE(parser.failed()) << c.wire;
    EXPECT_FALSE(parser.done()) << c.wire;
    parser.feed("GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_TRUE(parser.failed()) << c.wire;
    EXPECT_FALSE(parser.done()) << c.wire;
    EXPECT_EQ(parser.error_status(), c.status) << c.wire;
  }
}

TEST(HttpResponse, FramesBodyWithContentLength) {
  const std::string wire =
      http_response(429, "application/json", "{\"error\":\"full\"}",
                    {"Retry-After: 1"});
  EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 16\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\n{\"error\":\"full\"}"));
}

TEST(HttpResponse, ChunksCarryHexSizes) {
  EXPECT_EQ(http_chunk("hello, chunk"), "c\r\nhello, chunk\r\n");
  EXPECT_EQ(http_chunk(""), "");
  EXPECT_EQ(http_last_chunk(), "0\r\n\r\n");
}

// ----------------------------------------------------------------- cache --

TEST(ResultCache, ReplaysStoredBytesAndEvictsLru) {
  ResultCache cache(2);
  cache.insert(1, "one");
  cache.insert(2, "two");
  EXPECT_EQ(cache.find(1).value_or(""), "one");  // 1 is now most recent
  cache.insert(3, "three");                      // evicts 2
  EXPECT_FALSE(cache.find(2).has_value());
  EXPECT_EQ(cache.find(1).value_or(""), "one");
  EXPECT_EQ(cache.find(3).value_or(""), "three");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, CapacityZeroDisablesCaching) {
  ResultCache cache(0);
  cache.insert(1, "one");
  EXPECT_FALSE(cache.find(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------------------- admission --

TEST(Admission, AdmitsUpToConcurrencyThenBoundsTheQueue) {
  AdmissionController admission(/*max_concurrent=*/2, /*max_queue=*/0);
  EXPECT_EQ(admission.try_acquire(), Admission::kAdmitted);
  EXPECT_EQ(admission.try_acquire(), Admission::kAdmitted);
  // Slots full and the queue holds zero: shed immediately, never block.
  EXPECT_EQ(admission.try_acquire(), Admission::kRejected);
  admission.release();
  EXPECT_EQ(admission.try_acquire(), Admission::kAdmitted);
  admission.release();
  admission.release();
}

TEST(Admission, QueuedRequestWaitsForAFreedSlot) {
  AdmissionController admission(1, 1);
  ASSERT_EQ(admission.try_acquire(), Admission::kAdmitted);
  std::atomic<int> state{0};
  std::thread waiter([&] {
    const Admission result = admission.try_acquire();  // blocks in queue
    state.store(result == Admission::kAdmitted ? 1 : -1);
    if (result == Admission::kAdmitted) admission.release();
  });
  while (admission.queued() == 0) std::this_thread::yield();
  EXPECT_EQ(state.load(), 0);
  EXPECT_EQ(admission.try_acquire(), Admission::kRejected);  // queue full
  admission.release();
  waiter.join();
  EXPECT_EQ(state.load(), 1);
}

TEST(Admission, DrainRefusesNewWorkAndWaitsForRunning) {
  AdmissionController admission(2, 4);
  ASSERT_EQ(admission.try_acquire(), Admission::kAdmitted);
  admission.begin_drain();
  EXPECT_TRUE(admission.draining());
  EXPECT_EQ(admission.try_acquire(), Admission::kDraining);
  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    admission.drain();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());  // running slot still held
  admission.release();
  waiter.join();
  EXPECT_TRUE(drained.load());
}

TEST(Admission, DrainWakesQueuedWaitersWithRefusal) {
  AdmissionController admission(1, 2);
  ASSERT_EQ(admission.try_acquire(), Admission::kAdmitted);
  std::atomic<int> refused{0};
  std::thread waiter([&] {
    if (admission.try_acquire() == Admission::kDraining) ++refused;
  });
  while (admission.queued() == 0) std::this_thread::yield();
  admission.begin_drain();
  waiter.join();
  EXPECT_EQ(refused.load(), 1);
  admission.release();
  admission.drain();  // returns: nothing running, nothing queued
}

// ------------------------------------------------------------ end to end --

/// Minimal blocking test client for one request/response exchange.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool send_request(const std::string& wire) {
    std::string_view rest = wire;
    while (!rest.empty()) {
      const ssize_t sent = ::send(fd_, rest.data(), rest.size(), 0);
      if (sent <= 0) return false;
      rest.remove_prefix(static_cast<std::size_t>(sent));
    }
    return true;
  }

  /// Reads one Content-Length-framed response; "" on error.
  std::string read_response() {
    std::size_t head_end;
    while ((head_end = carry_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return "";
    }
    const std::string_view head =
        std::string_view(carry_).substr(0, head_end);
    const std::size_t body_bytes = content_length(head);
    while (carry_.size() < head_end + 4 + body_bytes) {
      if (!fill()) return "";
    }
    std::string response = carry_.substr(0, head_end + 4 + body_bytes);
    carry_.erase(0, head_end + 4 + body_bytes);
    return response;
  }

  /// Reads until the peer closes (chunked/streaming responses).
  std::string read_to_eof() {
    while (fill()) {
    }
    std::string all = std::move(carry_);
    carry_.clear();
    return all;
  }

  static std::string body_of(const std::string& response) {
    const std::size_t at = response.find("\r\n\r\n");
    return at == std::string::npos ? "" : response.substr(at + 4);
  }

 private:
  bool fill() {
    char buffer[16 * 1024];
    const ssize_t got = ::recv(fd_, buffer, sizeof buffer, 0);
    if (got <= 0) return false;
    carry_.append(buffer, static_cast<std::size_t>(got));
    return true;
  }

  static std::size_t content_length(std::string_view head) {
    const std::string_view name = "Content-Length: ";
    const std::size_t at = head.find(name);
    std::size_t value = 0;
    if (at == std::string_view::npos) return value;
    for (std::size_t i = at + name.size();
         i < head.size() && head[i] >= '0' && head[i] <= '9'; ++i) {
      value = value * 10 + static_cast<std::size_t>(head[i] - '0');
    }
    return value;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string carry_;
};

std::string post_run(const std::string& body, bool stream = false) {
  std::string wire = "POST /run";
  if (stream) wire += "?stream=1";
  wire += " HTTP/1.1\r\nHost: t\r\nContent-Length: ";
  wire += std::to_string(body.size());
  wire += "\r\n\r\n";
  wire += body;
  return wire;
}

/// Small spec that runs in tens of milliseconds.
std::string tiny_spec(std::uint64_t seed) {
  return "{\"config\":{\"profile\":\"cg\",\"threads\":2,\"intervals\":2,"
         "\"interval_instructions\":30000,\"seed\":" +
         std::to_string(seed) + "}}";
}

TEST(ServeEndToEnd, HealthzAnswersOnAnEphemeralPort) {
  ServerOptions options;
  HttpServer server(options);
  server.start();
  ASSERT_NE(server.port(), 0);
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_request("GET /healthz HTTP/1.1\r\n\r\n"));
  const std::string response = client.read_response();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(TestClient::body_of(response), "{\"status\":\"ok\"}");
  server.shutdown();
}

TEST(ServeEndToEnd, RunExecutesThenRepeatsServeByteIdenticalFromCache) {
  ServerOptions options;
  HttpServer server(options);
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_request(post_run(tiny_spec(11))));
  const std::string first = client.read_response();
  ASSERT_NE(first.find("200 OK"), std::string::npos) << first;
  EXPECT_NE(first.find("X-Capart-Cache: miss"), std::string::npos);
  const std::string first_body = TestClient::body_of(first);
  EXPECT_NE(first_body.find("\"ok\":true"), std::string::npos);

  // Same spec spelled differently (whitespace + explicit default): the
  // canonical hash matches, so the reply is the cached bytes, untouched.
  std::string respelled =
      "{ \"name\" : \"spec\", \"config\":{\"profile\":\"cg\",\"threads\":2,"
      "\"intervals\":2,\"interval_instructions\":30000,\"seed\":11}}";
  ASSERT_TRUE(client.send_request(post_run(respelled)));
  const std::string second = client.read_response();
  ASSERT_NE(second.find("200 OK"), std::string::npos);
  EXPECT_NE(second.find("X-Capart-Cache: hit"), std::string::npos);
  EXPECT_EQ(TestClient::body_of(second), first_body);

  // Different seed = different canonical bytes = a real run, not a hit.
  ASSERT_TRUE(client.send_request(post_run(tiny_spec(12))));
  const std::string third = client.read_response();
  EXPECT_NE(third.find("X-Capart-Cache: miss"), std::string::npos);
  EXPECT_NE(TestClient::body_of(third), first_body);

  EXPECT_EQ(server.metrics().counter("serve/cache_hits"), 1u);
  EXPECT_EQ(server.metrics().counter("serve/cache_misses"), 2u);
  server.shutdown();
}

TEST(ServeEndToEnd, InvalidSpecsGet400WithThePath) {
  ServerOptions options;
  HttpServer server(options);
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_request(
      post_run("{\"config\":{\"profile\":\"nope\"}}")));
  const std::string bad_profile = client.read_response();
  EXPECT_NE(bad_profile.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(bad_profile.find("unknown profile"), std::string::npos);

  ASSERT_TRUE(client.send_request(post_run("{\"config\":{\"threds\":2}}")));
  const std::string bad_key = client.read_response();
  EXPECT_NE(bad_key.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(bad_key.find("unknown key"), std::string::npos);

  ASSERT_TRUE(client.send_request(post_run("{not json")));
  const std::string bad_json = client.read_response();
  EXPECT_NE(bad_json.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(bad_json.find("offset"), std::string::npos);

  // 64 colors (one per way) cannot divide 32 sets: a 400, not a dead server.
  ASSERT_TRUE(client.send_request(post_run(
      "{\"config\":{\"l2_mode\":\"set-partitioned-shared\","
      "\"l2\":{\"sets\":32}}}")));
  const std::string bad_coloring = client.read_response();
  EXPECT_NE(bad_coloring.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(bad_coloring.find("--l2-ways to divide --l2-sets"),
            std::string::npos);

  // An instruction budget past 64 bits once wrapped, ran and was cached.
  ASSERT_TRUE(client.send_request(post_run(
      "{\"config\":{\"intervals\":2,"
      "\"interval_instructions\":9223372036854775808}}")));
  const std::string bad_budget = client.read_response();
  EXPECT_NE(bad_budget.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(bad_budget.find("overflow a 64-bit count"), std::string::npos);

  // The connection survived all five rejections (keep-alive).
  ASSERT_TRUE(client.send_request("GET /healthz HTTP/1.1\r\n\r\n"));
  EXPECT_NE(client.read_response().find("200 OK"), std::string::npos);
  server.shutdown();
}

TEST(ServeEndToEnd, OverCapacitySubmissionsGet429NotAQueue) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;  // no waiting room: concurrency 2 must shed
  HttpServer server(options);
  server.start();

  // A run big enough to still be executing when the second request lands.
  const std::string slow =
      "{\"config\":{\"profile\":\"cg\",\"threads\":2,\"intervals\":40,"
      "\"interval_instructions\":240000,\"seed\":21}}";
  TestClient busy(server.port());
  ASSERT_TRUE(busy.connected());
  ASSERT_TRUE(busy.send_request(post_run(slow)));

  // Wait until the slot is actually held, not just the bytes sent.
  for (int i = 0; i < 500 && server.metrics().counter("serve/cache_misses") ==
                                 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(server.metrics().counter("serve/cache_misses"), 0u);

  TestClient rejected(server.port());
  ASSERT_TRUE(rejected.connected());
  ASSERT_TRUE(rejected.send_request(post_run(tiny_spec(22))));
  const std::string response = rejected.read_response();
  EXPECT_NE(response.find("429 Too Many Requests"), std::string::npos)
      << response;
  EXPECT_NE(response.find("Retry-After: 1"), std::string::npos);
  EXPECT_GE(server.metrics().counter("serve/admission_rejects"), 1u);

  // The busy client still gets its full answer.
  const std::string slow_response = busy.read_response();
  EXPECT_NE(slow_response.find("200 OK"), std::string::npos);
  EXPECT_NE(slow_response.find("\"ok\":true"), std::string::npos);
  server.shutdown();
}

TEST(ServeEndToEnd, ConcurrentIdenticalSpecsCoalesceOntoOneExecution) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;  // a second real execution could not even queue
  HttpServer server(options);
  server.start();

  const std::string slow =
      "{\"config\":{\"profile\":\"cg\",\"threads\":2,\"intervals\":40,"
      "\"interval_instructions\":240000,\"seed\":23}}";
  TestClient leader(server.port());
  ASSERT_TRUE(leader.connected());
  ASSERT_TRUE(leader.send_request(post_run(slow)));
  for (int i = 0; i < 500 && server.metrics().counter("serve/cache_misses") ==
                                 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(server.metrics().counter("serve/cache_misses"), 0u);

  // The identical spec lands while the first is still executing. It must
  // coalesce onto that execution — not run again, not get 429 — and answer
  // with exactly the leader's bytes.
  TestClient follower(server.port());
  ASSERT_TRUE(follower.connected());
  ASSERT_TRUE(follower.send_request(post_run(slow)));

  const std::string leader_response = leader.read_response();
  const std::string follower_response = follower.read_response();
  EXPECT_NE(leader_response.find("X-Capart-Cache: miss"), std::string::npos);
  EXPECT_NE(follower_response.find("X-Capart-Cache: hit"), std::string::npos)
      << follower_response;
  EXPECT_EQ(TestClient::body_of(leader_response),
            TestClient::body_of(follower_response));
  EXPECT_EQ(server.metrics().counter("serve/coalesced"), 1u);
  EXPECT_EQ(server.metrics().counter("serve/cache_misses"), 1u);
  server.shutdown();
}

TEST(ServeEndToEnd, StreamingDeliversLiveEventsThenTheResultLine) {
  ServerOptions options;
  HttpServer server(options);
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.send_request(post_run(tiny_spec(31), true)));
  const std::string stream = client.read_to_eof();
  EXPECT_NE(stream.find("200 OK"), std::string::npos);
  EXPECT_NE(stream.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(stream.find("application/x-ndjson"), std::string::npos);
  // Live events of the run itself, then the final result line, then the
  // terminating chunk.
  EXPECT_NE(stream.find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(stream.find("\"type\":\"interval\""), std::string::npos);
  EXPECT_NE(stream.find("\"type\":\"run_end\""), std::string::npos);
  EXPECT_NE(stream.find("\"type\":\"result\""), std::string::npos);
  EXPECT_TRUE(stream.ends_with("0\r\n\r\n")) << stream.substr(
      stream.size() < 64 ? 0 : stream.size() - 64);

  // A streamed cache hit replays the result line only, still as a stream.
  TestClient again(server.port());
  ASSERT_TRUE(again.connected());
  ASSERT_TRUE(again.send_request(post_run(tiny_spec(31), true)));
  const std::string replay = again.read_to_eof();
  EXPECT_NE(replay.find("X-Capart-Cache: hit"), std::string::npos);
  EXPECT_NE(replay.find("\"type\":\"result\""), std::string::npos);
  EXPECT_EQ(replay.find("\"type\":\"interval\""), std::string::npos);
  server.shutdown();
}

TEST(ServeEndToEnd, DrainAnswersInFlightWorkAndRefusesNew) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 4;
  HttpServer server(options);
  server.start();

  const std::string slow =
      "{\"config\":{\"profile\":\"cg\",\"threads\":2,\"intervals\":30,"
      "\"interval_instructions\":240000,\"seed\":41}}";
  TestClient busy(server.port());
  ASSERT_TRUE(busy.connected());
  ASSERT_TRUE(busy.send_request(post_run(slow)));
  for (int i = 0; i < 500 && server.metrics().counter("serve/cache_misses") ==
                                 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  server.begin_drain();

  TestClient refused(server.port());
  if (refused.connected() &&
      refused.send_request(post_run(tiny_spec(42)))) {
    const std::string response = refused.read_response();
    if (!response.empty()) {
      EXPECT_NE(response.find("503 Service Unavailable"), std::string::npos)
          << response;
    }
  }

  // shutdown() returns only after the in-flight run was answered in full.
  std::thread closer([&] { server.shutdown(); });
  const std::string slow_response = busy.read_response();
  EXPECT_NE(slow_response.find("200 OK"), std::string::npos);
  EXPECT_NE(slow_response.find("\"ok\":true"), std::string::npos);
  closer.join();
}

}  // namespace
}  // namespace capart::serve
