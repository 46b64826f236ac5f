#include "src/obs/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"

namespace wayfinder {
namespace obs {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPropose:
      return "propose";
    case TraceKind::kBuild:
      return "build";
    case TraceKind::kEvaluate:
      return "evaluate";
    case TraceKind::kObserve:
      return "observe";
    case TraceKind::kCommit:
      return "commit";
    case TraceKind::kJournalAppend:
      return "journal_append";
    case TraceKind::kRetry:
      return "retry";
    case TraceKind::kDriftRevalidate:
      return "drift_revalidate";
  }
  return "unknown";
}

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void TraceRing::Record(TraceKind kind, uint64_t iteration, int64_t start_ns,
                       int64_t dur_ns) {
  if (!Enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ring_[total_ % capacity_] = TraceEvent{kind, iteration, start_ns, dur_ns};
  ++total_;
}

void TraceRing::RecordBatch(const TraceEvent* events, size_t n) {
  if (n == 0 || !Enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < n; ++i) {
    ring_[total_ % capacity_] = events[i];
    ++total_;
  }
}

void TraceRing::RecordInstant(TraceKind kind, uint64_t iteration) {
  if (!Enabled()) {
    return;
  }
  Record(kind, iteration, NowNs(), 0);
}

uint64_t TraceRing::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_ > capacity_ ? total_ - capacity_ : 0;
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  size_t held = total_ < capacity_ ? static_cast<size_t>(total_) : capacity_;
  out.reserve(held);
  size_t oldest = total_ < capacity_ ? 0 : static_cast<size_t>(total_ % capacity_);
  for (size_t i = 0; i < held; ++i) {
    out.push_back(ring_[(oldest + i) % capacity_]);
  }
  return out;
}

namespace {

void AppendJsonEscaped(const std::string& text, std::string* out) {
  for (char c : text) {
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
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string RenderChromeTrace(const std::vector<TraceEvent>& events,
                              const std::string& label) {
  int64_t base_ns = 0;
  for (const TraceEvent& event : events) {
    if (base_ns == 0 || event.start_ns < base_ns) {
      base_ns = event.start_ns;
    }
  }
  std::string out = "{\"traceEvents\":[";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
         "\"tid\":1,\"args\":{\"name\":\"";
  AppendJsonEscaped(label, &out);
  out += "\"}}";
  char buf[224];
  for (const TraceEvent& event : events) {
    double ts_us = static_cast<double>(event.start_ns - base_ns) / 1000.0;
    if (event.dur_ns > 0) {
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":1,\"tid\":1,\"args\":{\"iteration\":%llu}}",
                    TraceKindName(event.kind), ts_us,
                    static_cast<double>(event.dur_ns) / 1000.0,
                    static_cast<unsigned long long>(event.iteration));
    } else {
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                    "\"pid\":1,\"tid\":1,\"args\":{\"iteration\":%llu}}",
                    TraceKindName(event.kind), ts_us,
                    static_cast<unsigned long long>(event.iteration));
    }
    out += buf;
  }
  out += "]}";
  return out;
}

// --- minimal JSON parser for validation --------------------------------------
//
// Just enough JSON to check structure: parses values recursively, keeping
// only what the trace-shape check needs (object keys at the two levels it
// inspects). Rejects trailing garbage, unterminated strings, and malformed
// numbers — the properties a consumer like chrome://tracing relies on.

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  std::string string_value;
  std::vector<JsonValue> elements;                          // kArray
  std::vector<std::pair<std::string, JsonValue>> members;   // kObject
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    if (!ParseValue(out)) {
      *error = error_.empty() ? "invalid JSON" : error_;
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      *error = "trailing garbage after JSON value";
      return false;
    }
    return true;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool ParseLiteral(const char* word) {
    size_t len = 0;
    while (word[len] != '\0') ++len;
    if (text_.compare(pos_, len, word) != 0) {
      return Fail("bad literal");
    }
    pos_ += len;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return Fail("unterminated escape");
        }
        char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return Fail("bad \\u escape");
            }
            ++pos_;
          }
          *out += '?';
        } else if (esc == '"' || esc == '\\' || esc == '/' || esc == 'b' ||
                   esc == 'f' || esc == 'n' || esc == 'r' || esc == 't') {
          *out += esc;
        } else {
          return Fail("bad escape");
        }
      } else {
        *out += c;
      }
    }
    if (pos_ >= text_.size()) {
      return Fail("unterminated string");
    }
    ++pos_;  // Closing quote.
    return true;
  }

  bool ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t digits = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      return Fail("expected number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++digits;
      }
      if (digits == 0) {
        return Fail("bad fraction");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++digits;
      }
      if (digits == 0) {
        return Fail("bad exponent");
      }
    }
    return pos_ > start;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') {
      out->kind = JsonValue::Kind::kObject;
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->members.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->kind = JsonValue::Kind::kArray;
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        JsonValue element;
        if (!ParseValue(&element)) {
          return false;
        }
        out->elements.push_back(std::move(element));
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      return ParseLiteral("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      return ParseLiteral("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return ParseLiteral("null");
    }
    out->kind = JsonValue::Kind::kNumber;
    return ParseNumber();
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

const JsonValue* FindMember(const JsonValue& object, const std::string& key) {
  for (const auto& [name, value] : object.members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

}  // namespace

bool ValidateChromeTraceJson(const std::string& json, std::string* error) {
  JsonValue root;
  std::string parse_error;
  if (!JsonParser(json).Parse(&root, &parse_error)) {
    if (error != nullptr) {
      *error = parse_error;
    }
    return false;
  }
  auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  if (root.kind != JsonValue::Kind::kObject) {
    return fail("top level is not an object");
  }
  const JsonValue* events = FindMember(root, "traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return fail("missing traceEvents array");
  }
  for (size_t i = 0; i < events->elements.size(); ++i) {
    const JsonValue& event = events->elements[i];
    std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (event.kind != JsonValue::Kind::kObject) {
      return fail(at + " is not an object");
    }
    const JsonValue* name = FindMember(event, "name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      return fail(at + " has no string name");
    }
    const JsonValue* ph = FindMember(event, "ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->string_value.empty()) {
      return fail(at + " has no string ph");
    }
    for (const char* key : {"ts", "pid", "tid"}) {
      const JsonValue* field = FindMember(event, key);
      if (field == nullptr || field->kind != JsonValue::Kind::kNumber) {
        return fail(at + " has no numeric " + key);
      }
    }
    // Complete events carry their duration.
    if (ph->string_value == "X") {
      const JsonValue* dur = FindMember(event, "dur");
      if (dur == nullptr || dur->kind != JsonValue::Kind::kNumber) {
        return fail(at + " is ph=X with no numeric dur");
      }
    }
  }
  if (error != nullptr) {
    error->clear();
  }
  return true;
}

}  // namespace obs
}  // namespace wayfinder
