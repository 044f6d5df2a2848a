#include "support.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0) {
      return std::strtod(line.c_str() + length, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

void SpanLog::Add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

void AppendQuoted(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::vector<SpanRecord> spans = Snapshot();
  Clock::time_point origin =
      spans.empty() ? Clock::time_point{} : spans.front().start;
  for (const SpanRecord& span : spans) origin = std::min(origin, span.start);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::string event = i == 0 ? "{\"name\":" : ",\n{\"name\":";
    AppendQuoted(&event, span.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%llu,\"args\":{"
                  "\"span\":%llu,\"parent\":%llu,\"request\":%llu}}",
                  MsBetween(origin, span.start) * 1000.0,
                  MsBetween(span.start, span.end) * 1000.0,
                  static_cast<unsigned long long>(span.request),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.request));
    event += buf;
    out << event;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, uint64_t parent,
                       uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  record_.id = log_->NextId();
  record_.parent = parent;
  record_.request = request;
  record_.name = std::move(name);
  record_.start = Clock::now();
}

void ScopedSpan::End() {
  if (log_ == nullptr) return;
  record_.end = Clock::now();
  log_->Add(std::move(record_));
  log_ = nullptr;
}

std::vector<std::pair<std::string, double>> SelfTimeMsByName(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<Clock::time_point,
                                           Clock::time_point>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans) {
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      Clock::time_point cursor = span.start;
      for (const auto& [from, to] : intervals) {
        Clock::time_point lo = std::max(from, cursor);
        Clock::time_point hi = std::min(to, span.end);
        if (hi > lo) {
          covered += MsBetween(lo, hi);
          cursor = hi;
        }
      }
    }
    self[span.name] += MsBetween(span.start, span.end) - covered;
  }
  return {self.begin(), self.end()};
}

// ---------------------------------------------------------------------------
// HTTP
// ---------------------------------------------------------------------------

namespace {

constexpr int kIoTimeoutMs = 60000;

bool HeaderIs(std::string_view line, std::string_view name,
              std::string_view* value) {
  if (line.size() <= name.size() || line[name.size()] != ':') return false;
  for (size_t i = 0; i < name.size(); ++i) {
    char a = line[i];
    if (a >= 'A' && a <= 'Z') a = static_cast<char>(a - 'A' + 'a');
    if (a != name[i]) return false;
  }
  std::string_view rest = line.substr(name.size() + 1);
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  *value = rest;
  return true;
}

}  // namespace

HttpConn::~HttpConn() { Close(); }

bool HttpConn::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpConn::Fill() {
  pollfd pfd{fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, kIoTimeoutMs);
  if (ready <= 0) return false;
  char chunk[65536];
  ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buf_.append(chunk, static_cast<size_t>(n));
  wire_ += static_cast<size_t>(n);
  return true;
}

bool HttpConn::RoundTrip(std::string_view request, HttpReply* reply) {
  *reply = HttpReply{};
  if (fd_ < 0 && !Connect()) return false;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  wire_ = 0;

  size_t header_end;
  while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) {
      Close();
      return false;
    }
  }
  std::string_view head(buf_.data(), header_end);
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
    Close();
    return false;
  }
  reply->status = std::atoi(std::string(head.substr(9, 3)).c_str());
  bool chunked = false;
  bool close_after = false;
  long long content_length = -1;
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos < head.size()) {
    size_t next = head.find("\r\n", pos + 2);
    std::string_view line = head.substr(
        pos + 2, (next == std::string_view::npos ? head.size() : next) -
                     (pos + 2));
    std::string_view value;
    if (HeaderIs(line, "content-length", &value)) {
      content_length = std::atoll(std::string(value).c_str());
    } else if (HeaderIs(line, "transfer-encoding", &value)) {
      chunked = value.find("chunked") != std::string_view::npos;
    } else if (HeaderIs(line, "connection", &value)) {
      close_after = value.find("close") != std::string_view::npos;
    } else if (HeaderIs(line, "x-soda-wall-ms", &value)) {
      reply->wall_ms_header = std::strtod(std::string(value).c_str(), nullptr);
    }
    pos = next;
  }
  size_t cursor = header_end + 4;

  if (chunked) {
    for (;;) {
      size_t line_end;
      while ((line_end = buf_.find("\r\n", cursor)) == std::string::npos) {
        if (!Fill()) {
          Close();
          return false;
        }
      }
      unsigned long long size =
          std::strtoull(buf_.c_str() + cursor, nullptr, 16);
      size_t data_at = line_end + 2;
      while (buf_.size() < data_at + size + 2) {
        if (!Fill()) {
          Close();
          return false;
        }
      }
      if (size == 0) {
        cursor = data_at + 2;
        break;
      }
      reply->body.append(buf_, data_at, size);
      if (!reply->first_chunk_seen) {
        reply->first_chunk_seen = true;
        reply->first_chunk_at = Clock::now();
      }
      cursor = data_at + size + 2;
    }
  } else {
    if (content_length < 0) {
      Close();
      return false;
    }
    size_t need = cursor + static_cast<size_t>(content_length);
    while (buf_.size() < need) {
      if (!Fill()) {
        Close();
        return false;
      }
    }
    reply->body.assign(buf_, cursor, static_cast<size_t>(content_length));
    cursor = need;
  }
  buf_.erase(0, cursor);
  reply->wire_bytes = wire_;
  if (close_after) Close();
  return true;
}

std::string PostRequest(std::string_view target, std::string_view body) {
  std::string request = "POST ";
  request.append(target);
  request.append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
      "Content-Length: ");
  request.append(std::to_string(body.size()));
  request.append("\r\n\r\n");
  request.append(body);
  return request;
}

bool SplitOutputs(std::string_view body, std::vector<std::string_view>* out) {
  out->clear();
  constexpr std::string_view kPrefix = "{\"outputs\":[";
  constexpr std::string_view kSuffix = "]}\n";
  if (body.size() < kPrefix.size() + kSuffix.size() ||
      body.substr(0, kPrefix.size()) != kPrefix ||
      body.substr(body.size() - kSuffix.size()) != kSuffix) {
    return false;
  }
  std::string_view inner = body.substr(
      kPrefix.size(), body.size() - kPrefix.size() - kSuffix.size());
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  size_t begin = 0;
  for (size_t i = 0; i < inner.size(); ++i) {
    char c = inner[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ',' && depth == 0) {
      out->push_back(inner.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  if (depth != 0 || in_string) return false;
  if (!inner.empty()) out->push_back(inner.substr(begin));
  return true;
}

std::string OutputFragment(const std::string& body) {
  std::vector<std::string_view> parts;
  if (!SplitOutputs(body, &parts) || parts.size() != 1) return body;
  return std::string(parts.front());
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
