// Building blocks of the end-to-end benchmark program: order statistics,
// an in-memory span log with Chrome trace_event export, and a minimal
// keep-alive HTTP/1.1 client that timestamps the first chunk of a
// chunked response (the ranked-SQL head of a streamed /search).

#ifndef SODA_PERFBENCH_SUPPORT_H_
#define SODA_PERFBENCH_SUPPORT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);


/// CPU time consumed so far by every thread of this process, seconds.
double ProcessCpuSeconds();

/// A kB field of /proc/self/status ("VmRSS:", "VmHWM:"), in MiB.
double ProcStatusMb(const char* field);

/// One recorded span: [start, end) on the steady clock, its parent span
/// (0 = root) and the request it belongs to.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans kept in memory for the whole run and written out once at the
/// end. Thread-safe.
class SpanLog {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(SpanRecord record);
  std::vector<SpanRecord> Snapshot() const;

  /// Writes every span as Chrome trace_event JSON ("X" events, one
  /// track per request). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t parent,
             uint64_t request);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return record_.id; }
  void End();

 private:
  SpanLog* log_;
  SpanRecord record_;
};

/// Self time of every span (its duration minus the union of its
/// children's intervals), summed per span name.
std::vector<std::pair<std::string, double>> SelfTimeMsByName(
    const std::vector<SpanRecord>& spans);

/// One HTTP response as the benchmark needs it.
struct HttpReply {
  int status = 0;
  std::string body;          // de-chunked
  double wall_ms_header = -1.0;  // X-Soda-Wall-Ms, -1 when absent
  size_t wire_bytes = 0;     // bytes read off the socket
  bool first_chunk_seen = false;
  Clock::time_point first_chunk_at;
};

/// A blocking keep-alive connection to 127.0.0.1:port. Reconnects when
/// the server closed the previous exchange ("Connection: close").
class HttpConn {
 public:
  explicit HttpConn(uint16_t port) : port_(port) {}
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Sends the pre-rendered request bytes and reads one full response.
  /// Returns false on a transport or framing error (the connection is
  /// closed and the next call reconnects).
  bool RoundTrip(std::string_view request, HttpReply* reply);

 private:
  bool Connect();
  void Close();
  bool Fill();  // reads more bytes into buf_; false on EOF/error/timeout

  uint16_t port_;
  int fd_ = -1;
  std::string buf_;
  size_t wire_ = 0;
};

/// Serializes a POST with a JSON body.
std::string PostRequest(std::string_view target, std::string_view body);

/// Splits the top-level array members of `{"outputs":[a,b,...]}\n`
/// into their raw byte slices. Returns false on any other shape.
bool SplitOutputs(std::string_view body, std::vector<std::string_view>* out);

/// The raw member bytes of a one-query response body (the same split,
/// for a body known to hold exactly one output).
std::string OutputFragment(const std::string& body);

/// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view bytes);

}  // namespace perfbench

#endif  // SODA_PERFBENCH_SUPPORT_H_
