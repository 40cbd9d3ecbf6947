// Machine-readable experiment output. Every bench binary historically
// printed only an aligned text table; ResultSink adds JSON (BENCH_<name>.json)
// and CSV exports of the same RunSummary + ServerStats rows so figures can be
// regenerated, diffed, and plotted without scraping stdout. The JSON schema
// is parsed back by parse_json_results / parse_csv_rows, which the test suite
// uses to assert lossless round-trips.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/server.h"
#include "rack/tor_scheduler.h"
#include "stats/recorder.h"

namespace nicsched::exp {

/// One exported result: a labelled load point with the client-side summary
/// and the server-side counters behind it.
struct ResultRow {
  std::string series;
  stats::RunSummary summary;
  /// Single-host: that host's counters. Rack mode: the cross-host aggregate
  /// (the per-host breakdown travels inside `rack`).
  core::ServerStats server;
  double mean_worker_utilization = 0.0;
  /// Rack mode only (DESIGN §12): ToR dispatch/feedback counters plus
  /// per-host snapshots. JSON round-trips it losslessly; CSV exports the
  /// aggregate columns (zeros when absent) with presence encoded as
  /// tor_hosts > 0, and does not carry the per-host rows.
  std::optional<rack::RackStats> rack;
};

struct CheckResult {
  std::string label;
  bool pass = false;
};

/// Accumulates rows/metrics/checks, then renders them on write(). Concrete
/// sinks share the collection logic and differ only in format.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  void add(ResultRow row) { rows_.push_back(std::move(row)); }
  void add_metric(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
  }
  void add_check(std::string label, bool pass) {
    checks_.push_back({std::move(label), pass});
  }

  const std::vector<ResultRow>& rows() const { return rows_; }
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }
  const std::vector<CheckResult>& checks() const { return checks_; }

  virtual void write(std::ostream& out) const = 0;

  /// Convenience: write to `path`; returns false (and leaves no file
  /// guarantee) on I/O failure.
  bool write_file(const std::string& path) const;

 protected:
  std::vector<ResultRow> rows_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<CheckResult> checks_;
};

/// JSON document:
///   {"name": ..., "title": ..., "fast_mode": ...,
///    "rows": [{"series": ..., "summary": {...}, "server": {...},
///              "mean_worker_utilization": ...}, ...],
///    "metrics": {...}, "checks": [{"label": ..., "pass": ...}, ...]}
/// Doubles are printed with max_digits10 precision so parsing them back is
/// bit-exact.
class JsonResultSink : public ResultSink {
 public:
  JsonResultSink(std::string name, std::string title)
      : name_(std::move(name)), title_(std::move(title)) {}

  void write(std::ostream& out) const override;

 private:
  std::string name_;
  std::string title_;
};

/// Version stamped into the leading `schema` cell of every CSV row. Schema 3
/// = 53 payload cells (52 rack-era columns + the packed per-tenant cell)
/// behind the version marker. parse_csv_rows reads only this version; an
/// unversioned row (the pre-schema 39- and 52-cell exports) or another
/// version is a parse error.
inline constexpr std::uint64_t kCsvSchemaVersion = 3;

/// One header line plus one line per row; metrics and checks are not part of
/// the CSV (they go to JSON), keeping the file loadable as a plain dataframe.
class CsvResultSink : public ResultSink {
 public:
  void write(std::ostream& out) const override;
};

/// Everything a JSON export contains, reconstructed.
struct ParsedResults {
  std::string name;
  std::string title;
  bool fast_mode = false;
  std::vector<ResultRow> rows;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<CheckResult> checks;
};

/// Parses a document produced by JsonResultSink::write. Returns nullopt and
/// fills `error` (if given) on malformed input.
std::optional<ParsedResults> parse_json_results(std::string_view text,
                                                std::string* error = nullptr);

/// Parses CsvResultSink output back into rows (per-worker utilizations and
/// ddio counters included).
std::optional<std::vector<ResultRow>> parse_csv_rows(
    std::string_view text, std::string* error = nullptr);

}  // namespace nicsched::exp
