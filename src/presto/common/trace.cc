#include "presto/common/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace presto {

BlockedCounters& ThreadBlockedCounters() {
  thread_local BlockedCounters cell;
  return cell;
}

TraceContext& ThreadTraceContext() {
  thread_local TraceContext ctx;
  return ctx;
}

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kQuery:
      return "query";
    case TraceKind::kAdmission:
      return "admission";
    case TraceKind::kStage:
      return "stage";
    case TraceKind::kTask:
      return "task";
    case TraceKind::kRetryBackoff:
      return "retry_backoff";
    case TraceKind::kChain:
      return "chain";
    case TraceKind::kOperator:
      return "operator";
    case TraceKind::kExchangeWait:
      return "exchange_wait";
    case TraceKind::kSpillWrite:
      return "spill_write";
    case TraceKind::kSpillRead:
      return "spill_read";
    case TraceKind::kMemoryWait:
      return "memory_wait";
    case TraceKind::kScanDecode:
      return "scan_decode";
    case TraceKind::kSpeculation:
      return "speculation";
  }
  return "unknown";
}

int64_t TraceRecorder::TidFor(std::thread::id id) {
  std::lock_guard<std::mutex> lock(tid_mu_);
  auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  int64_t tid = static_cast<int64_t>(tids_.size()) + 1;
  tids_.emplace(id, tid);
  return tid;
}

int64_t TraceRecorder::BeginSpan(TraceKind kind, const std::string& name,
                                 int64_t parent_id) {
  int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (id > max_spans_) {
    dropped_spans_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  TraceSpan span;
  span.id = id;
  span.parent_id = parent_id;
  span.kind = kind;
  span.name = name;
  span.start_nanos = SteadyNowNanos();
  span.tid = TidFor(std::this_thread::get_id());
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.index[id] = shard.spans.size();
  shard.spans.push_back(std::move(span));
  return id;
}

void TraceRecorder::EndSpan(int64_t id) {
  if (id == 0) return;
  int64_t now = SteadyNowNanos();
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return;
  TraceSpan& span = shard.spans[it->second];
  if (span.end_nanos == 0) span.end_nanos = now;
}

void TraceRecorder::SetArg(int64_t id, const std::string& key, int64_t value) {
  if (id == 0) return;
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return;
  shard.spans[it->second].args[key] = value;
}

void TraceRecorder::EndSpanWithArgs(
    int64_t id, const std::vector<std::pair<std::string, int64_t>>& args) {
  if (id == 0) return;
  int64_t now = SteadyNowNanos();
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return;
  TraceSpan& span = shard.spans[it->second];
  if (span.end_nanos == 0) span.end_nanos = now;
  for (const auto& [key, value] : args) span.args[key] = value;
}

std::vector<TraceSpan> TraceRecorder::Snapshot() const {
  std::vector<TraceSpan> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.spans.begin(), shard.spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSpan& a, const TraceSpan& b) { return a.id < b.id; });
  return out;
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string TraceRecorder::ToChromeTraceJson(int64_t pid,
                                             const std::string& trace_id) const {
  int64_t now = SteadyNowNanos();
  std::vector<TraceSpan> spans = Snapshot();
  std::string out;
  out.reserve(spans.size() * 160 + 128);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : spans) {
    if (!first) out += ",";
    first = false;
    int64_t end = span.end_nanos == 0 ? now : span.end_nanos;
    int64_t ts = (span.start_nanos - start_nanos_) / 1000;
    int64_t dur = (end - span.start_nanos) / 1000;
    out += "{\"name\":";
    AppendJsonString(&out, span.name);
    out += ",\"cat\":";
    AppendJsonString(&out, TraceKindName(span.kind));
    out += ",\"ph\":\"X\",\"ts\":" + std::to_string(ts);
    out += ",\"dur\":" + std::to_string(dur);
    out += ",\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(span.tid);
    out += ",\"args\":{";
    bool first_arg = true;
    // Span identity rides in args so tools (and our round-trip tests) can
    // rebuild the tree from the flat event list.
    out += "\"span_id\":" + std::to_string(span.id);
    out += ",\"parent_id\":" + std::to_string(span.parent_id);
    first_arg = false;
    for (const auto& [key, value] : span.args) {
      if (!first_arg) out += ",";
      first_arg = false;
      AppendJsonString(&out, key);
      out += ":" + std::to_string(value);
    }
    out += "}}";
  }
  out += "],\"otherData\":{\"trace_id\":";
  AppendJsonString(&out, trace_id);
  out += ",\"dropped_spans\":" + std::to_string(dropped_spans()) + "}}";
  return out;
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (strict subset: what ToChromeTraceJson emits)
// ---------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject } kind =
      kNull;
  bool b = false;
  int64_t i = 0;
  double d = 0;
  std::string s;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::Corruption("trailing bytes after JSON value at offset " +
                                std::to_string(pos_));
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::Corruption(std::string("expected '") + c + "' at offset " +
                                std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Status::Corruption("unexpected end of JSON");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      JsonValue v;
      v.kind = JsonValue::kBool;
      v.b = true;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      JsonValue v;
      v.kind = JsonValue::kBool;
      v.b = false;
      return v;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue();
    }
    return Status::Corruption("unrecognized JSON token at offset " +
                              std::to_string(pos_));
  }

  Result<JsonValue> ParseObject() {
    RETURN_IF_ERROR(Expect('{'));
    JsonValue v;
    v.kind = JsonValue::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      ASSIGN_OR_RETURN(JsonValue key, ParseString());
      RETURN_IF_ERROR(Expect(':'));
      ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      v.object.emplace_back(std::move(key.s), std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        SkipSpace();
        continue;
      }
      RETURN_IF_ERROR(Expect('}'));
      return v;
    }
  }

  Result<JsonValue> ParseArray() {
    RETURN_IF_ERROR(Expect('['));
    JsonValue v;
    v.kind = JsonValue::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      ASSIGN_OR_RETURN(JsonValue elem, ParseValue());
      v.array.push_back(std::move(elem));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      RETURN_IF_ERROR(Expect(']'));
      return v;
    }
  }

  Result<JsonValue> ParseString() {
    RETURN_IF_ERROR(Expect('"'));
    JsonValue v;
    v.kind = JsonValue::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            v.s.push_back('"');
            break;
          case '\\':
            v.s.push_back('\\');
            break;
          case '/':
            v.s.push_back('/');
            break;
          case 'n':
            v.s.push_back('\n');
            break;
          case 't':
            v.s.push_back('\t');
            break;
          case 'r':
            v.s.push_back('\r');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status::Corruption("truncated \\u escape");
            }
            int code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += h - '0';
              } else if (h >= 'a' && h <= 'f') {
                code += h - 'a' + 10;
              } else if (h >= 'A' && h <= 'F') {
                code += h - 'A' + 10;
              } else {
                return Status::Corruption("bad \\u escape digit");
              }
            }
            // Our writer only escapes control characters, so the code point
            // always fits one byte.
            v.s.push_back(static_cast<char>(code));
            break;
          }
          default:
            return Status::Corruption(std::string("bad escape '\\") + esc +
                                      "'");
        }
      } else {
        v.s.push_back(c);
      }
    }
    return Status::Corruption("unterminated JSON string");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string token = text_.substr(start, pos_ - start);
    JsonValue v;
    try {
      if (is_double) {
        v.kind = JsonValue::kDouble;
        v.d = std::stod(token);
      } else {
        v.kind = JsonValue::kInt;
        v.i = std::stoll(token);
      }
    } catch (...) {
      return Status::Corruption("bad JSON number '" + token + "'");
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

int64_t AsInt(const JsonValue& v) {
  return v.kind == JsonValue::kDouble ? static_cast<int64_t>(v.d) : v.i;
}

}  // namespace

Result<ChromeTrace> ParseChromeTraceJson(const std::string& json) {
  JsonParser parser(json);
  ASSIGN_OR_RETURN(JsonValue root, parser.Parse());
  if (root.kind != JsonValue::kObject) {
    return Status::Corruption("trace root is not a JSON object");
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::kArray) {
    return Status::Corruption("missing traceEvents array");
  }
  ChromeTrace trace;
  for (const JsonValue& ev : events->array) {
    if (ev.kind != JsonValue::kObject) {
      return Status::Corruption("trace event is not an object");
    }
    ChromeTraceEvent out;
    for (const auto& [key, value] : ev.object) {
      if (key == "name") {
        out.name = value.s;
      } else if (key == "cat") {
        out.cat = value.s;
      } else if (key == "ph") {
        out.ph = value.s;
      } else if (key == "ts") {
        out.ts_micros = AsInt(value);
      } else if (key == "dur") {
        out.dur_micros = AsInt(value);
      } else if (key == "pid") {
        out.pid = AsInt(value);
      } else if (key == "tid") {
        out.tid = AsInt(value);
      } else if (key == "args") {
        if (value.kind != JsonValue::kObject) {
          return Status::Corruption("event args is not an object");
        }
        for (const auto& [ak, av] : value.object) {
          out.args[ak] = AsInt(av);
        }
      }
    }
    if (out.ph != "X") {
      return Status::Corruption("unexpected event phase '" + out.ph + "'");
    }
    if (out.name.empty()) return Status::Corruption("event missing name");
    trace.events.push_back(std::move(out));
  }
  const JsonValue* other = root.Find("otherData");
  if (other != nullptr && other->kind == JsonValue::kObject) {
    const JsonValue* tid = other->Find("trace_id");
    if (tid != nullptr) trace.trace_id = tid->s;
  }
  return trace;
}

}  // namespace presto
