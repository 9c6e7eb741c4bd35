// perfbench_load — the benchmark's own HTTP/1.1 load client, on raw POSIX
// sockets so that changes to the repository's net layer (its loadgen
// included) cannot move the yardstick.
//
//   perfbench_load --port P --pool FILE (--rate R --seconds S | --closed N)
//
// Open loop (--rate): request i is due at start + i/R, for S seconds.
// Independent users send on that schedule whatever the server does, so
// latency is timed from the due time; a request waits for one of the C
// keep-alive connections when all are busy, and that wait counts. How late
// the generator itself ran (send time minus the later of the due time and
// the moment a connection was free) is reported as gen_lag_ms.
//
// C = min(4, hardware threads): the load comes from one process over at
// most nproc = 4 connections.
//
// Closed loop (--closed N): C callers each send their next request as soon
// as the previous one is answered, until N requests are answered; wall_s is
// the time that took.
//
// Every response must be 200 with a body byte-equal to the pool's expected
// body; anything else (refused connection, reset, 503, wrong body) counts
// as failed, with a latency of at least the 10 s socket timeout, so it
// misses any latency limit. Prints one JSON line.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// Socket send/receive timeout, and the latency a failed request counts as.
constexpr int kTimeoutSeconds = 10;
constexpr double kFailedMs = kTimeoutSeconds * 1000.0;
constexpr unsigned kMaxConnections = 4;

struct Request {
  std::string wire;  ///< full HTTP request bytes
  std::string expected;
};

std::uint32_t get_u32(std::ifstream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("truncated pool file");
  return v;
}

std::string get_bytes(std::ifstream& in, std::uint32_t n) {
  if (n > (64u << 20)) throw std::runtime_error("oversized pool entry");
  std::string s(n, '\0');
  in.read(s.data(), n);
  if (!in) throw std::runtime_error("truncated pool file");
  return s;
}

std::vector<Request> read_pool(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  in.read(magic, 4);
  if (!in || std::memcmp(magic, "PBRQ", 4) != 0) throw std::runtime_error("bad pool file");
  const std::uint32_t count = get_u32(in);
  std::vector<Request> pool;
  for (std::uint32_t i = 0; i < count; ++i) {
    (void)get_u32(in);  // rows
    const std::string body = get_bytes(in, get_u32(in));
    Request r;
    r.wire = "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/csv\r\n"
             "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
    r.expected = get_bytes(in, get_u32(in));
    pool.push_back(std::move(r));
  }
  if (pool.empty()) throw std::runtime_error("empty pool");
  return pool;
}

/// One keep-alive connection; reconnects after any failure or close.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection() { close_fd(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request and reads its response. Returns true iff the
  /// response is 200 with exactly `expected` as its body.
  bool exchange(const Request& req) {
    if (fd_ < 0 && !open_fd()) return false;
    if (!send_all(req.wire)) {
      close_fd();
      return false;
    }
    int status = 0;
    bool keep = true;
    std::string body;
    if (!read_response(status, keep, body)) {
      close_fd();
      return false;
    }
    if (!keep) close_fd();
    return status == 200 && body == req.expected;
  }

 private:
  bool open_fd() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{.tv_sec = kTimeoutSeconds, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      close_fd();
      return false;
    }
    buf_.clear();
    return true;
  }

  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool fill() {
    char tmp[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(n));
      return true;
    }
  }

  bool read_response(int& status, bool& keep, std::string& body) {
    std::size_t head_end = std::string::npos;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (buf_.size() > (1u << 16) || !fill()) return false;
    }
    const std::string head = buf_.substr(0, head_end);
    if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 12) return false;
    status = std::atoi(head.c_str() + 9);
    std::string lower(head);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    const std::size_t cl = lower.find("\r\ncontent-length:");
    if (cl == std::string::npos) return false;
    const long long len = std::atoll(lower.c_str() + cl + 17);
    if (len < 0 || len > (64ll << 20)) return false;
    keep = lower.find("\r\nconnection: close") == std::string::npos;
    const std::size_t total = head_end + 4 + static_cast<std::size_t>(len);
    while (buf_.size() < total) {
      if (!fill()) return false;
    }
    body = buf_.substr(head_end + 4, static_cast<std::size_t>(len));
    buf_.erase(0, total);
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string buf_;
};

struct Sample {
  double latency_ms = 0;  ///< from due (open loop) or send (closed loop)
  double lag_ms = 0;
  double rtt_us = 0;      ///< send to last response byte
  bool ok = false;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  double rate = 0, seconds = 0;
  std::size_t closed = 0;
  std::string pool_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--port") port = std::atoi(v);
    else if (flag == "--pool") pool_path = v;
    else if (flag == "--rate") rate = std::atof(v);
    else if (flag == "--seconds") seconds = std::atof(v);
    else if (flag == "--closed") closed = std::strtoull(v, nullptr, 10);
    else {
      std::fprintf(stderr, "perfbench_load: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const int connections = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, kMaxConnections));
  const bool open_loop = rate > 0;
  if (port <= 0 || pool_path.empty() || (open_loop ? seconds <= 0 : closed == 0)) {
    std::fprintf(stderr, "usage: perfbench_load --port P --pool FILE "
                         "(--rate R --seconds S | --closed N)\n");
    return 2;
  }

  std::vector<Request> pool;
  try {
    pool = read_pool(pool_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 2;
  }

  const std::size_t total =
      open_loop ? static_cast<std::size_t>(std::llround(rate * seconds)) : closed;
  std::vector<Sample> samples(total);
  std::atomic<std::size_t> next{0};
  // Open loop: a short lead so every thread is parked before the first due time.
  const auto start = Clock::now() + std::chrono::milliseconds(open_loop ? 20 : 0);
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      Connection conn(port);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= total) return;
        const auto free_at = Clock::now();
        Clock::time_point due = free_at;
        if (open_loop) {
          due = due_of(i);
          std::this_thread::sleep_until(due);
        }
        const auto sent = Clock::now();
        Sample& s = samples[i];
        s.ok = conn.exchange(pool[i % pool.size()]);
        const auto done = Clock::now();
        s.lag_ms = ms(sent - std::max(due, free_at));
        s.rtt_us = ms(done - sent) * 1e3;
        // A failure misses any latency limit: it counts at least the timeout.
        s.latency_ms = s.ok ? ms(done - due) : std::max(ms(done - due), kFailedMs);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latency, lag;
  double rtt_sum = 0;
  std::size_t failed = 0;
  for (const auto& s : samples) {
    latency.push_back(s.latency_ms);
    lag.push_back(s.lag_ms);
    rtt_sum += s.rtt_us;
    if (!s.ok) ++failed;
  }
  const double p99 = quantile(latency, 0.99);
  const double gen_lag = quantile(lag, 0.99);
  std::printf("{\"rate\": %s, \"connections\": %d, \"attempted\": %zu, \"failed\": %zu, "
              "\"p50_ms\": %s, \"p99_ms\": %s, \"gen_lag_ms\": %s, \"rtt_us_mean\": %s, "
              "\"wall_s\": %s}\n",
              number(rate).c_str(), connections, total, failed,
              number(quantile(latency, 0.5)).c_str(), number(p99).c_str(),
              number(gen_lag).c_str(),
              number(rtt_sum / static_cast<double>(std::max<std::size_t>(1, total))).c_str(),
              number(wall_s).c_str());
  return 0;
}
