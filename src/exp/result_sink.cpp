#include "exp/result_sink.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "exp/grid.h"

namespace nicsched::exp {

namespace {

// ---- writing ---------------------------------------------------------------

/// Doubles print with max_digits10 so strtod reads back the exact value.
std::string num(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c; break;
    }
  }
  out += '"';
  return out;
}

void write_summary_json(std::ostream& out, const stats::RunSummary& s) {
  out << "{\"offered_rps\": " << num(s.offered_rps)
      << ", \"achieved_rps\": " << num(s.achieved_rps)
      << ", \"issued\": " << s.issued << ", \"completed\": " << s.completed
      << ", \"mean_us\": " << num(s.mean_us)
      << ", \"p50_us\": " << num(s.p50_us)
      << ", \"p90_us\": " << num(s.p90_us)
      << ", \"p99_us\": " << num(s.p99_us)
      << ", \"p999_us\": " << num(s.p999_us)
      << ", \"max_us\": " << num(s.max_us)
      << ", \"preemptions\": " << s.preemptions
      << ", \"goodput\": " << s.goodput
      << ", \"goodput_rps\": " << num(s.goodput_rps) << "}";
}

void write_server_json(std::ostream& out, const core::ServerStats& s) {
  out << "{\"requests_received\": " << s.requests_received
      << ", \"responses_sent\": " << s.responses_sent
      << ", \"preemptions\": " << s.preemptions
      << ", \"spurious_interrupts\": " << s.spurious_interrupts
      << ", \"steals\": " << s.steals << ", \"drops\": " << s.drops
      << ", \"queue_max_depth\": " << s.queue_max_depth
      << ", \"worker_utilization\": [";
  for (std::size_t i = 0; i < s.worker_utilization.size(); ++i) {
    if (i > 0) out << ", ";
    out << num(s.worker_utilization[i]);
  }
  out << "], \"ddio\": {\"l1_touches\": " << s.ddio.l1_touches
      << ", \"llc_touches\": " << s.ddio.llc_touches
      << ", \"dram_touches\": " << s.ddio.dram_touches
      << "}, \"reliability\": {\"retransmits\": " << s.reliability.retransmits
      << ", \"note_retransmits\": " << s.reliability.note_retransmits
      << ", \"timeouts\": " << s.reliability.timeouts
      << ", \"redispatched\": " << s.reliability.redispatched
      << ", \"abandoned\": " << s.reliability.abandoned
      << ", \"duplicates\": " << s.reliability.duplicates
      << ", \"worker_deaths\": " << s.reliability.worker_deaths
      << ", \"revivals\": " << s.reliability.revivals
      << "}, \"overload\": {\"admitted\": " << s.overload.admitted
      << ", \"rejected\": " << s.overload.rejected
      << ", \"shed_expired\": " << s.overload.shed_expired
      << ", \"k_shrinks\": " << s.overload.k_shrinks
      << ", \"k_restores\": " << s.overload.k_restores << "}";
  // Per-tenant rows (DESIGN §13), emitted only when the tenant layer ran so
  // untenanted exports stay byte-identical. k_shrinks/k_restores are per
  // worker, never per tenant, so the rows do not carry them.
  if (!s.tenants.empty()) {
    out << ", \"tenants\": [";
    for (std::size_t i = 0; i < s.tenants.size(); ++i) {
      const tenant::TenantStats& t = s.tenants[i];
      out << (i == 0 ? "" : ", ") << "{\"id\": " << t.id
          << ", \"enqueued\": " << t.enqueued
          << ", \"dispatched\": " << t.dispatched
          << ", \"max_depth\": " << t.max_depth
          << ", \"admitted\": " << t.overload.admitted
          << ", \"rejected\": " << t.overload.rejected
          << ", \"shed_expired\": " << t.overload.shed_expired << "}";
    }
    out << "]";
  }
  out << "}";
}

void write_rack_json(std::ostream& out, const rack::RackStats& r) {
  out << "{\"requests_forwarded\": " << r.requests_forwarded
      << ", \"responses_forwarded\": " << r.responses_forwarded
      << ", \"rejects_forwarded\": " << r.rejects_forwarded
      << ", \"other_forwarded\": " << r.other_forwarded
      << ", \"malformed_dropped\": " << r.malformed_dropped
      << ", \"affinity_hits\": " << r.affinity_hits
      << ", \"affinity_expired\": " << r.affinity_expired
      << ", \"unknown_responses\": " << r.unknown_responses
      << ", \"informed_decisions\": " << r.informed_decisions
      << ", \"stale_decisions\": " << r.stale_decisions
      << ", \"feedback_samples\": " << r.feedback_samples
      << ", \"feedback_discarded_dead\": " << r.feedback_discarded_dead
      << ", \"hosts\": [";
  for (std::size_t i = 0; i < r.hosts.size(); ++i) {
    const rack::RackHostStats& h = r.hosts[i];
    out << (i == 0 ? "" : ", ") << "{\"requests\": " << h.requests
        << ", \"responses\": " << h.responses
        << ", \"rejects\": " << h.rejects
        << ", \"outstanding\": " << h.outstanding
        << ", \"deaths\": " << h.deaths << ", \"revivals\": " << h.revivals
        << ", \"resets\": " << h.resets
        << ", \"feedback_discarded\": " << h.feedback_discarded
        << ", \"sojourn_ewma_us\": " << num(h.sojourn_ewma_us)
        << ", \"queue_depth\": " << h.queue_depth;
    if (!h.tenants.empty()) {
      out << ", \"tenants\": [";
      for (std::size_t j = 0; j < h.tenants.size(); ++j) {
        const rack::RackTenantStats& t = h.tenants[j];
        out << (j == 0 ? "" : ", ") << "{\"tenant\": " << t.tenant
            << ", \"requests\": " << t.requests
            << ", \"responses\": " << t.responses
            << ", \"rejects\": " << t.rejects
            << ", \"outstanding\": " << t.outstanding << "}";
      }
      out << "]";
    }
    out << "}";
  }
  out << "]";
  if (!r.tenants.empty()) {
    out << ", \"tenants\": [";
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
      const rack::RackTenantStats& t = r.tenants[i];
      out << (i == 0 ? "" : ", ") << "{\"tenant\": " << t.tenant
          << ", \"requests\": " << t.requests
          << ", \"responses\": " << t.responses
          << ", \"rejects\": " << t.rejects
          << ", \"outstanding\": " << t.outstanding << "}";
    }
    out << "]";
  }
  out << "}";
}

// ---- parsing ---------------------------------------------------------------

/// Just enough JSON to read back what the writers above emit (and any other
/// standard JSON of the same shape).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [name, value] : object) {
      if (name == key) return &value;
    }
    return nullptr;
  }
  double number_or(std::string_view key, double fallback = 0.0) const {
    const JsonValue* value = find(key);
    return value != nullptr && value->type == Type::kNumber ? value->number
                                                            : fallback;
  }
  std::uint64_t count_or(std::string_view key) const {
    return static_cast<std::uint64_t>(number_or(key));
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    auto value = parse_value();
    skip_space();
    if (!value || pos_ != text_.size()) {
      if (error != nullptr) {
        *error = error_.empty() ? "trailing content" : error_;
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char expected) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return std::nullopt;
  }

  std::optional<JsonValue> parse_value() {
    skip_space();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  std::optional<JsonValue> parse_object() {
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    consume('{');
    if (consume('}')) return value;
    while (true) {
      auto key = parse_string();
      if (!key) return fail("expected object key");
      if (!consume(':')) return fail("expected ':'");
      auto member = parse_value();
      if (!member) return std::nullopt;
      value.object.emplace_back(std::move(key->text), std::move(*member));
      if (consume(',')) continue;
      if (consume('}')) return value;
      return fail("expected ',' or '}'");
    }
  }

  std::optional<JsonValue> parse_array() {
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    consume('[');
    if (consume(']')) return value;
    while (true) {
      auto element = parse_value();
      if (!element) return std::nullopt;
      value.array.push_back(std::move(*element));
      if (consume(',')) continue;
      if (consume(']')) return value;
      return fail("expected ',' or ']'");
    }
  }

  std::optional<JsonValue> parse_string() {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char escaped = text_[pos_++];
        switch (escaped) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: c = escaped; break;
        }
      }
      value.text += c;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return value;
  }

  std::optional<JsonValue> parse_bool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return value;
    }
    return fail("bad literal");
  }

  std::optional<JsonValue> parse_null() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return JsonValue{};
    }
    return fail("bad literal");
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = parsed;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

stats::RunSummary summary_from_json(const JsonValue& json) {
  stats::RunSummary summary;
  summary.offered_rps = json.number_or("offered_rps");
  summary.achieved_rps = json.number_or("achieved_rps");
  summary.issued = json.count_or("issued");
  summary.completed = json.count_or("completed");
  summary.mean_us = json.number_or("mean_us");
  summary.p50_us = json.number_or("p50_us");
  summary.p90_us = json.number_or("p90_us");
  summary.p99_us = json.number_or("p99_us");
  summary.p999_us = json.number_or("p999_us");
  summary.max_us = json.number_or("max_us");
  summary.preemptions = json.count_or("preemptions");
  summary.goodput = json.count_or("goodput");
  summary.goodput_rps = json.number_or("goodput_rps");
  return summary;
}

core::ServerStats server_from_json(const JsonValue& json) {
  core::ServerStats server;
  server.requests_received = json.count_or("requests_received");
  server.responses_sent = json.count_or("responses_sent");
  server.preemptions = json.count_or("preemptions");
  server.spurious_interrupts = json.count_or("spurious_interrupts");
  server.steals = json.count_or("steals");
  server.drops = json.count_or("drops");
  server.queue_max_depth =
      static_cast<std::size_t>(json.number_or("queue_max_depth"));
  if (const JsonValue* utilization = json.find("worker_utilization")) {
    for (const auto& entry : utilization->array) {
      server.worker_utilization.push_back(entry.number);
    }
  }
  if (const JsonValue* ddio = json.find("ddio")) {
    server.ddio.l1_touches = ddio->count_or("l1_touches");
    server.ddio.llc_touches = ddio->count_or("llc_touches");
    server.ddio.dram_touches = ddio->count_or("dram_touches");
  }
  if (const JsonValue* reliability = json.find("reliability")) {
    server.reliability.retransmits = reliability->count_or("retransmits");
    server.reliability.note_retransmits =
        reliability->count_or("note_retransmits");
    server.reliability.timeouts = reliability->count_or("timeouts");
    server.reliability.redispatched = reliability->count_or("redispatched");
    server.reliability.abandoned = reliability->count_or("abandoned");
    server.reliability.duplicates = reliability->count_or("duplicates");
    server.reliability.worker_deaths = reliability->count_or("worker_deaths");
    server.reliability.revivals = reliability->count_or("revivals");
  }
  if (const JsonValue* overload = json.find("overload")) {
    server.overload.admitted = overload->count_or("admitted");
    server.overload.rejected = overload->count_or("rejected");
    server.overload.shed_expired = overload->count_or("shed_expired");
    server.overload.k_shrinks = overload->count_or("k_shrinks");
    server.overload.k_restores = overload->count_or("k_restores");
  }
  if (const JsonValue* tenants = json.find("tenants")) {
    for (const JsonValue& entry : tenants->array) {
      tenant::TenantStats t;
      t.id = static_cast<std::uint16_t>(entry.number_or("id"));
      t.enqueued = entry.count_or("enqueued");
      t.dispatched = entry.count_or("dispatched");
      t.max_depth = static_cast<std::size_t>(entry.number_or("max_depth"));
      t.overload.admitted = entry.count_or("admitted");
      t.overload.rejected = entry.count_or("rejected");
      t.overload.shed_expired = entry.count_or("shed_expired");
      server.tenants.push_back(t);
    }
  }
  return server;
}

rack::RackStats rack_from_json(const JsonValue& json) {
  rack::RackStats r;
  r.requests_forwarded = json.count_or("requests_forwarded");
  r.responses_forwarded = json.count_or("responses_forwarded");
  r.rejects_forwarded = json.count_or("rejects_forwarded");
  r.other_forwarded = json.count_or("other_forwarded");
  r.malformed_dropped = json.count_or("malformed_dropped");
  r.affinity_hits = json.count_or("affinity_hits");
  r.affinity_expired = json.count_or("affinity_expired");
  r.unknown_responses = json.count_or("unknown_responses");
  r.informed_decisions = json.count_or("informed_decisions");
  r.stale_decisions = json.count_or("stale_decisions");
  r.feedback_samples = json.count_or("feedback_samples");
  r.feedback_discarded_dead = json.count_or("feedback_discarded_dead");
  const auto tenant_rows = [](const JsonValue& node) {
    std::vector<rack::RackTenantStats> rows;
    if (const JsonValue* tenants = node.find("tenants")) {
      for (const JsonValue& entry : tenants->array) {
        rack::RackTenantStats t;
        t.tenant = static_cast<std::uint16_t>(entry.number_or("tenant"));
        t.requests = entry.count_or("requests");
        t.responses = entry.count_or("responses");
        t.rejects = entry.count_or("rejects");
        t.outstanding = entry.count_or("outstanding");
        rows.push_back(t);
      }
    }
    return rows;
  };
  if (const JsonValue* hosts = json.find("hosts")) {
    for (const JsonValue& entry : hosts->array) {
      rack::RackHostStats h;
      h.requests = entry.count_or("requests");
      h.responses = entry.count_or("responses");
      h.rejects = entry.count_or("rejects");
      h.outstanding = entry.count_or("outstanding");
      h.deaths = entry.count_or("deaths");
      h.revivals = entry.count_or("revivals");
      h.resets = entry.count_or("resets");
      h.feedback_discarded = entry.count_or("feedback_discarded");
      h.sojourn_ewma_us = entry.number_or("sojourn_ewma_us");
      h.queue_depth =
          static_cast<std::uint32_t>(entry.number_or("queue_depth"));
      h.tenants = tenant_rows(entry);
      r.hosts.push_back(h);
    }
  }
  r.tenants = tenant_rows(json);
  return r;
}

}  // namespace

bool ResultSink::write_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  write(file);
  return static_cast<bool>(file);
}

void JsonResultSink::write(std::ostream& out) const {
  out << "{\"name\": " << quoted(name_) << ",\n \"title\": " << quoted(title_)
      << ",\n \"fast_mode\": " << (fast_mode() ? "true" : "false")
      << ",\n \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ResultRow& row = rows_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"series\": " << quoted(row.series)
        << ", \"summary\": ";
    write_summary_json(out, row.summary);
    out << ", \"server\": ";
    write_server_json(out, row.server);
    out << ", \"mean_worker_utilization\": "
        << num(row.mean_worker_utilization);
    if (row.rack) {
      out << ", \"rack\": ";
      write_rack_json(out, *row.rack);
    }
    out << "}";
  }
  out << (rows_.empty() ? "]" : "\n ]") << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << quoted(metrics_[i].first) << ": " << num(metrics_[i].second);
  }
  out << "},\n \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"label\": " << quoted(checks_[i].label)
        << ", \"pass\": " << (checks_[i].pass ? "true" : "false") << "}";
  }
  out << "]}\n";
}

void CsvResultSink::write(std::ostream& out) const {
  // Schema 3 (DESIGN §13): a leading integer `schema` cell versions every
  // row, and a trailing `tenants` cell packs the per-tenant breakdown.
  // Legacy exports (39-cell pre-rack, 52-cell rack-era) led with the series
  // name instead — the parser dispatches on whether cell 0 is an integer.
  out << "schema,"
         "series,offered_rps,achieved_rps,issued,completed,mean_us,p50_us,"
         "p90_us,p99_us,p999_us,max_us,preemptions,srv_requests_received,"
         "srv_responses_sent,srv_preemptions,srv_spurious_interrupts,"
         "srv_steals,srv_drops,srv_queue_max_depth,mean_worker_utilization,"
         "worker_utilization,ddio_l1,ddio_llc,ddio_dram,srv_retransmits,"
         "srv_note_retransmits,srv_timeouts,srv_redispatched,srv_abandoned,"
         "srv_duplicates,srv_worker_deaths,srv_revivals,goodput,goodput_rps,"
         "srv_admitted,srv_rejected,srv_shed_expired,srv_k_shrinks,"
         "srv_k_restores,tor_hosts,tor_requests,tor_responses,tor_rejects,"
         "tor_other,tor_malformed,tor_affinity_hits,tor_affinity_expired,"
         "tor_unknown_responses,tor_informed,tor_stale,tor_feedback_samples,"
         "tor_feedback_discarded_dead,tenants\n";
  for (const ResultRow& row : rows_) {
    const stats::RunSummary& s = row.summary;
    const core::ServerStats& server = row.server;
    out << kCsvSchemaVersion << ','
        << row.series << ',' << num(s.offered_rps) << ','
        << num(s.achieved_rps) << ',' << s.issued << ',' << s.completed << ','
        << num(s.mean_us) << ',' << num(s.p50_us) << ',' << num(s.p90_us)
        << ',' << num(s.p99_us) << ',' << num(s.p999_us) << ','
        << num(s.max_us) << ',' << s.preemptions << ','
        << server.requests_received << ',' << server.responses_sent << ','
        << server.preemptions << ',' << server.spurious_interrupts << ','
        << server.steals << ',' << server.drops << ','
        << server.queue_max_depth << ','
        << num(row.mean_worker_utilization) << ',';
    // The per-worker vector packs into one ';'-joined cell so the file stays
    // one row per point.
    for (std::size_t i = 0; i < server.worker_utilization.size(); ++i) {
      if (i > 0) out << ';';
      out << num(server.worker_utilization[i]);
    }
    out << ',' << server.ddio.l1_touches << ',' << server.ddio.llc_touches
        << ',' << server.ddio.dram_touches << ','
        << server.reliability.retransmits << ','
        << server.reliability.note_retransmits << ','
        << server.reliability.timeouts << ','
        << server.reliability.redispatched << ','
        << server.reliability.abandoned << ','
        << server.reliability.duplicates << ','
        << server.reliability.worker_deaths << ','
        << server.reliability.revivals << ',' << s.goodput << ','
        << num(s.goodput_rps) << ',' << server.overload.admitted << ','
        << server.overload.rejected << ',' << server.overload.shed_expired
        << ',' << server.overload.k_shrinks << ','
        << server.overload.k_restores << ',';
    // Rack aggregates, zeros when the row has none; tor_hosts doubles as the
    // presence marker the parser keys on.
    const rack::RackStats rack_stats =
        row.rack ? *row.rack : rack::RackStats{};
    out << (row.rack ? rack_stats.hosts.size() : 0u) << ','
        << rack_stats.requests_forwarded << ','
        << rack_stats.responses_forwarded << ','
        << rack_stats.rejects_forwarded << ',' << rack_stats.other_forwarded
        << ',' << rack_stats.malformed_dropped << ','
        << rack_stats.affinity_hits << ',' << rack_stats.affinity_expired
        << ',' << rack_stats.unknown_responses << ','
        << rack_stats.informed_decisions << ',' << rack_stats.stale_decisions
        << ',' << rack_stats.feedback_samples << ','
        << rack_stats.feedback_discarded_dead << ',';
    // Per-tenant rows pack into one ';'-joined cell of ':'-separated fields
    // (id:enqueued:dispatched:max_depth:admitted:rejected:shed_expired);
    // empty for untenanted rows.
    for (std::size_t i = 0; i < server.tenants.size(); ++i) {
      const tenant::TenantStats& t = server.tenants[i];
      if (i > 0) out << ';';
      out << t.id << ':' << t.enqueued << ':' << t.dispatched << ':'
          << t.max_depth << ':' << t.overload.admitted << ':'
          << t.overload.rejected << ':' << t.overload.shed_expired;
    }
    out << '\n';
  }
}

std::optional<ParsedResults> parse_json_results(std::string_view text,
                                                std::string* error) {
  JsonParser parser(text);
  const auto root = parser.parse(error);
  if (!root) return std::nullopt;
  if (root->type != JsonValue::Type::kObject) {
    if (error != nullptr) *error = "top-level value is not an object";
    return std::nullopt;
  }

  ParsedResults results;
  if (const JsonValue* name = root->find("name")) results.name = name->text;
  if (const JsonValue* title = root->find("title")) {
    results.title = title->text;
  }
  if (const JsonValue* fast = root->find("fast_mode")) {
    results.fast_mode = fast->boolean;
  }
  if (const JsonValue* rows = root->find("rows")) {
    for (const JsonValue& entry : rows->array) {
      ResultRow row;
      if (const JsonValue* series = entry.find("series")) {
        row.series = series->text;
      }
      if (const JsonValue* summary = entry.find("summary")) {
        row.summary = summary_from_json(*summary);
      }
      if (const JsonValue* server = entry.find("server")) {
        row.server = server_from_json(*server);
      }
      row.mean_worker_utilization =
          entry.number_or("mean_worker_utilization");
      if (const JsonValue* rack = entry.find("rack")) {
        row.rack = rack_from_json(*rack);
      }
      results.rows.push_back(std::move(row));
    }
  }
  if (const JsonValue* metrics = root->find("metrics")) {
    for (const auto& [name, value] : metrics->object) {
      results.metrics.emplace_back(name, value.number);
    }
  }
  if (const JsonValue* checks = root->find("checks")) {
    for (const JsonValue& entry : checks->array) {
      CheckResult check;
      if (const JsonValue* label = entry.find("label")) {
        check.label = label->text;
      }
      if (const JsonValue* pass = entry.find("pass")) {
        check.pass = pass->boolean;
      }
      results.checks.push_back(std::move(check));
    }
  }
  return results;
}

std::optional<std::vector<ResultRow>> parse_csv_rows(std::string_view text,
                                                     std::string* error) {
  auto split = [](std::string_view line, char separator) {
    std::vector<std::string> cells;
    std::size_t start = 0;
    while (true) {
      const std::size_t end = line.find(separator, start);
      cells.emplace_back(line.substr(
          start, end == std::string_view::npos ? end : end - start));
      if (end == std::string_view::npos) break;
      start = end + 1;
    }
    return cells;
  };

  std::vector<ResultRow> rows;
  std::size_t line_start = 0;
  bool header = true;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    const std::string_view line =
        text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty()) continue;
    if (header) {
      header = false;
      continue;
    }
    auto cells = split(line, ',');
    // Every row leads with its bare-integer schema cell; popping it leaves
    // each payload column at its historical index.
    if (cells.empty() || cells[0].empty() ||
        cells[0].find_first_not_of("0123456789") != std::string::npos) {
      if (error != nullptr) {
        *error = "row has no leading schema version cell (unversioned "
                 "pre-schema rows are not supported)";
      }
      return std::nullopt;
    }
    const std::uint64_t schema = std::strtoull(cells[0].c_str(), nullptr, 10);
    cells.erase(cells.begin());
    if (schema != kCsvSchemaVersion) {
      if (error != nullptr) {
        *error = "unsupported schema version " + std::to_string(schema);
      }
      return std::nullopt;
    }
    if (cells.size() != 53) {
      if (error != nullptr) {
        *error = "schema 3 expects 53 payload cells, got " +
                 std::to_string(cells.size());
      }
      return std::nullopt;
    }
    ResultRow row;
    row.series = cells[0];
    row.summary.offered_rps = std::atof(cells[1].c_str());
    row.summary.achieved_rps = std::atof(cells[2].c_str());
    row.summary.issued = std::strtoull(cells[3].c_str(), nullptr, 10);
    row.summary.completed = std::strtoull(cells[4].c_str(), nullptr, 10);
    row.summary.mean_us = std::atof(cells[5].c_str());
    row.summary.p50_us = std::atof(cells[6].c_str());
    row.summary.p90_us = std::atof(cells[7].c_str());
    row.summary.p99_us = std::atof(cells[8].c_str());
    row.summary.p999_us = std::atof(cells[9].c_str());
    row.summary.max_us = std::atof(cells[10].c_str());
    row.summary.preemptions = std::strtoull(cells[11].c_str(), nullptr, 10);
    row.server.requests_received =
        std::strtoull(cells[12].c_str(), nullptr, 10);
    row.server.responses_sent = std::strtoull(cells[13].c_str(), nullptr, 10);
    row.server.preemptions = std::strtoull(cells[14].c_str(), nullptr, 10);
    row.server.spurious_interrupts =
        std::strtoull(cells[15].c_str(), nullptr, 10);
    row.server.steals = std::strtoull(cells[16].c_str(), nullptr, 10);
    row.server.drops = std::strtoull(cells[17].c_str(), nullptr, 10);
    row.server.queue_max_depth = static_cast<std::size_t>(
        std::strtoull(cells[18].c_str(), nullptr, 10));
    row.mean_worker_utilization = std::atof(cells[19].c_str());
    if (!cells[20].empty()) {
      for (const std::string& cell : split(cells[20], ';')) {
        row.server.worker_utilization.push_back(std::atof(cell.c_str()));
      }
    }
    row.server.ddio.l1_touches = std::strtoull(cells[21].c_str(), nullptr, 10);
    row.server.ddio.llc_touches =
        std::strtoull(cells[22].c_str(), nullptr, 10);
    row.server.ddio.dram_touches =
        std::strtoull(cells[23].c_str(), nullptr, 10);
    row.server.reliability.retransmits =
        std::strtoull(cells[24].c_str(), nullptr, 10);
    row.server.reliability.note_retransmits =
        std::strtoull(cells[25].c_str(), nullptr, 10);
    row.server.reliability.timeouts =
        std::strtoull(cells[26].c_str(), nullptr, 10);
    row.server.reliability.redispatched =
        std::strtoull(cells[27].c_str(), nullptr, 10);
    row.server.reliability.abandoned =
        std::strtoull(cells[28].c_str(), nullptr, 10);
    row.server.reliability.duplicates =
        std::strtoull(cells[29].c_str(), nullptr, 10);
    row.server.reliability.worker_deaths =
        std::strtoull(cells[30].c_str(), nullptr, 10);
    row.server.reliability.revivals =
        std::strtoull(cells[31].c_str(), nullptr, 10);
    row.summary.goodput = std::strtoull(cells[32].c_str(), nullptr, 10);
    row.summary.goodput_rps = std::atof(cells[33].c_str());
    row.server.overload.admitted =
        std::strtoull(cells[34].c_str(), nullptr, 10);
    row.server.overload.rejected =
        std::strtoull(cells[35].c_str(), nullptr, 10);
    row.server.overload.shed_expired =
        std::strtoull(cells[36].c_str(), nullptr, 10);
    row.server.overload.k_shrinks =
        std::strtoull(cells[37].c_str(), nullptr, 10);
    row.server.overload.k_restores =
        std::strtoull(cells[38].c_str(), nullptr, 10);
    const std::uint64_t tor_hosts =
        std::strtoull(cells[39].c_str(), nullptr, 10);
    if (tor_hosts > 0) {
      rack::RackStats rack_stats;
      rack_stats.requests_forwarded =
          std::strtoull(cells[40].c_str(), nullptr, 10);
      rack_stats.responses_forwarded =
          std::strtoull(cells[41].c_str(), nullptr, 10);
      rack_stats.rejects_forwarded =
          std::strtoull(cells[42].c_str(), nullptr, 10);
      rack_stats.other_forwarded =
          std::strtoull(cells[43].c_str(), nullptr, 10);
      rack_stats.malformed_dropped =
          std::strtoull(cells[44].c_str(), nullptr, 10);
      rack_stats.affinity_hits =
          std::strtoull(cells[45].c_str(), nullptr, 10);
      rack_stats.affinity_expired =
          std::strtoull(cells[46].c_str(), nullptr, 10);
      rack_stats.unknown_responses =
          std::strtoull(cells[47].c_str(), nullptr, 10);
      rack_stats.informed_decisions =
          std::strtoull(cells[48].c_str(), nullptr, 10);
      rack_stats.stale_decisions =
          std::strtoull(cells[49].c_str(), nullptr, 10);
      rack_stats.feedback_samples =
          std::strtoull(cells[50].c_str(), nullptr, 10);
      rack_stats.feedback_discarded_dead =
          std::strtoull(cells[51].c_str(), nullptr, 10);
      // CSV carries the aggregates only; the per-host breakdown lives in
      // the JSON export. Size the hosts vector so host_count survives.
      rack_stats.hosts.resize(tor_hosts);
      row.rack = std::move(rack_stats);
    }
    if (!cells[52].empty()) {
      for (const std::string& packed : split(cells[52], ';')) {
        const auto fields = split(packed, ':');
        if (fields.size() != 7) {
          if (error != nullptr) {
            *error = "bad tenant cell entry '" + packed + "'";
          }
          return std::nullopt;
        }
        tenant::TenantStats t;
        t.id = static_cast<std::uint16_t>(
            std::strtoull(fields[0].c_str(), nullptr, 10));
        t.enqueued = std::strtoull(fields[1].c_str(), nullptr, 10);
        t.dispatched = std::strtoull(fields[2].c_str(), nullptr, 10);
        t.max_depth = static_cast<std::size_t>(
            std::strtoull(fields[3].c_str(), nullptr, 10));
        t.overload.admitted = std::strtoull(fields[4].c_str(), nullptr, 10);
        t.overload.rejected = std::strtoull(fields[5].c_str(), nullptr, 10);
        t.overload.shed_expired =
            std::strtoull(fields[6].c_str(), nullptr, 10);
        row.server.tenants.push_back(t);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace nicsched::exp
