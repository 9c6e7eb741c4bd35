#include "rainshine/simdc/ticket_io.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "rainshine/ingest/metrics.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/strings.hpp"

namespace rainshine::simdc {

namespace {

using ingest::ErrorPolicy;
using ingest::IngestReport;
using ingest::ReasonCode;

constexpr const char* kHeader =
    "rack_id,server_index,component_index,fault,true_positive,burst_id,"
    "open_hour,close_hour";

constexpr const char* kColumnNames[8] = {
    "rack_id",       "server_index", "component_index", "fault",
    "true_positive", "burst_id",     "open_hour",       "close_hour"};

std::optional<FaultType> fault_from_string(std::string_view name) {
  for (const FaultType f : kAllFaultTypes) {
    if (to_string(f) == name) return f;
  }
  return std::nullopt;
}

/// Why one record failed validation. `column` indexes kColumnNames; -1 means
/// the fault concerns the whole record (e.g. width mismatch).
struct RowIssue {
  ReasonCode reason = ReasonCode::kWidthMismatch;
  int column = -1;
  std::string detail;
};

/// Parses and validates one record into `t`. On failure returns the issue;
/// `t` is filled up to (not including) the failing check, so the repair path
/// can inspect partially parsed fields (notably open/close for skew fixups).
std::optional<RowIssue> parse_row(const std::vector<std::string_view>& fields,
                                  const Fleet& fleet, Ticket& t) {
  if (fields.size() != 8) {
    return RowIssue{ReasonCode::kWidthMismatch, -1,
                    "expected 8 fields, got " + std::to_string(fields.size())};
  }

  long long parsed[8] = {};
  for (const int i : {0, 1, 2, 4, 5, 6, 7}) {
    const std::string_view cell = util::trim(fields[static_cast<std::size_t>(i)]);
    if (cell.empty()) {
      return RowIssue{ReasonCode::kMissingCell, i, "required cell is empty"};
    }
    if (!util::parse_int(cell, parsed[i])) {
      return RowIssue{ReasonCode::kBadNumber, i,
                      "bad integer '" + std::string(cell) + "'"};
    }
  }

  t.rack_id = static_cast<std::int32_t>(parsed[0]);
  if (t.rack_id < 0 || static_cast<std::size_t>(t.rack_id) >= fleet.num_racks()) {
    return RowIssue{ReasonCode::kRackOutOfRange, 0,
                    "rack " + std::to_string(parsed[0]) + " outside fleet of " +
                        std::to_string(fleet.num_racks()) + " racks"};
  }
  const Rack& rack = fleet.rack(t.rack_id);

  t.server_index = static_cast<std::int16_t>(parsed[1]);
  if (t.server_index < 0 || t.server_index >= rack.servers()) {
    return RowIssue{ReasonCode::kServerOutOfRange, 1,
                    "server slot " + std::to_string(parsed[1]) +
                        " outside the rack's " + std::to_string(rack.servers()) +
                        " servers"};
  }

  t.component_index = static_cast<std::int16_t>(parsed[2]);

  const auto fault = fault_from_string(util::trim(fields[3]));
  if (!fault.has_value()) {
    return RowIssue{ReasonCode::kUnknownFault, 3,
                    "unknown fault '" + std::string(fields[3]) + "'"};
  }
  t.fault = *fault;

  const int slots = device_kind_of(t.fault) == DeviceKind::kDisk
                        ? sku_spec(rack.sku).disks_per_server
                    : device_kind_of(t.fault) == DeviceKind::kDimm
                        ? sku_spec(rack.sku).dimms_per_server
                        : 0;
  if (device_kind_of(t.fault) == DeviceKind::kServer) {
    if (t.component_index != -1) {
      return RowIssue{ReasonCode::kComponentOutOfRange, 2,
                      "server-level fault must have component_index -1"};
    }
  } else if (t.component_index < 0 || t.component_index >= slots) {
    return RowIssue{ReasonCode::kComponentOutOfRange, 2,
                    "slot " + std::to_string(parsed[2]) + " outside the SKU's " +
                        std::to_string(slots) + " slots"};
  }

  t.true_positive = parsed[4] != 0;
  t.burst_id = static_cast<std::int32_t>(parsed[5]);
  t.open_hour = parsed[6];
  t.close_hour = parsed[7];
  if (t.close_hour <= t.open_hour) {
    return RowIssue{ReasonCode::kNonPositiveDuration, 7,
                    "close hour " + std::to_string(parsed[7]) +
                        " not after open hour " + std::to_string(parsed[6])};
  }
  return std::nullopt;
}

[[noreturn]] void throw_issue(std::size_t row, const RowIssue& issue) {
  std::string msg = "ticket CSV row " + std::to_string(row);
  if (issue.column >= 0) {
    msg += ", column '" + std::string(kColumnNames[issue.column]) + "'";
  }
  throw util::precondition_error(msg + ": " + issue.detail);
}

void strip_bom(std::string& line) {
  if (line.size() >= 3 && line[0] == '\xEF' && line[1] == '\xBB' &&
      line[2] == '\xBF') {
    line.erase(0, 3);
  }
}

}  // namespace

void write_ticket_csv(const TicketLog& log, std::ostream& out) {
  out << kHeader << '\n';
  for (const Ticket& t : log.tickets()) {
    out << t.rack_id << ',' << t.server_index << ',' << t.component_index << ','
        << to_string(t.fault) << ',' << (t.true_positive ? 1 : 0) << ','
        << t.burst_id << ',' << t.open_hour << ',' << t.close_hour << '\n';
  }
}

TicketLog read_ticket_csv(std::istream& in, const Fleet& fleet,
                          const TicketReadOptions& options, IngestReport* report) {
  // Accounting always runs — into the caller's report when supplied (delta
  // published, so a report reused across reads never double-counts), into a
  // local one otherwise.
  ingest::IngestReport local_report;
  ingest::IngestReport* rep = report != nullptr ? report : &local_report;
  const ingest::IngestReport before = *rep;

  const ErrorPolicy policy = options.policy;
  std::string line;
  util::require(static_cast<bool>(std::getline(in, line)),
                "ticket CSV row 1: missing header");
  strip_bom(line);
  util::require(util::trim(line) == kHeader,
                "ticket CSV row 1: header mismatch; expected: " +
                    std::string(kHeader));

  const auto note_quarantine = [&](std::size_t row, const RowIssue& issue) {
    rep->quarantine({row,
                     issue.column >= 0 ? kColumnNames[issue.column] : "",
                     issue.reason, issue.detail});
  };
  const auto note_repair = [&](std::size_t row, int column, ReasonCode reason,
                               std::string detail) {
    rep->repair({row, column >= 0 ? kColumnNames[column] : "", reason,
                 std::move(detail)});
  };

  std::vector<Ticket> tickets;
  std::unordered_set<std::string> seen_lines;  // kRepair duplicate detection
  std::size_t row = 1;
  while (std::getline(in, line)) {
    ++row;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    rep->saw_row();

    if (policy == ErrorPolicy::kRepair &&
        !seen_lines.emplace(trimmed).second) {
      note_repair(row, -1, ReasonCode::kDuplicateRow,
                  "exact duplicate of an earlier record; dropped");
      continue;
    }

    const auto fields = util::split(trimmed, ',');
    Ticket t;
    auto issue = parse_row(fields, fleet, t);

    if (issue.has_value() && policy == ErrorPolicy::kRepair &&
        issue->reason == ReasonCode::kNonPositiveDuration &&
        t.close_hour < t.open_hour) {
      // Documented fixup: a busted clock filed the hours reversed. A zero
      // duration (close == open) is not repairable and stays quarantined.
      std::swap(t.open_hour, t.close_hour);
      note_repair(row, 7, ReasonCode::kNonPositiveDuration,
                  "open/close hours swapped to restore close > open");
      issue.reset();
    }

    if (issue.has_value()) {
      if (policy == ErrorPolicy::kStrict) throw_issue(row, *issue);
      note_quarantine(row, *issue);
      continue;
    }
    rep->accept();
    tickets.push_back(t);
  }
  ingest::publish_report_delta(before, *rep);
  return TicketLog(std::move(tickets));
}

TicketLog read_ticket_csv(std::istream& in, const Fleet& fleet) {
  return read_ticket_csv(in, fleet, TicketReadOptions{}, nullptr);
}

TicketLog read_ticket_csv_file(const std::string& path, const Fleet& fleet,
                               const TicketReadOptions& options,
                               IngestReport* report) {
  std::ifstream in(path);
  util::require(in.good(), "cannot open ticket CSV: " + path);
  return read_ticket_csv(in, fleet, options, report);
}

TicketLog read_ticket_csv_file(const std::string& path, const Fleet& fleet) {
  return read_ticket_csv_file(path, fleet, TicketReadOptions{}, nullptr);
}

}  // namespace rainshine::simdc
