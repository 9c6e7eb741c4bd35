// Ticket-log CSV interchange.
//
// The analyses don't care whether tickets came from the simulator or a real
// RMA export: `write_ticket_csv` dumps a log in a flat, documented schema
// and `read_ticket_csv` loads one back (validating against a fleet), so an
// operator can run the Q1-Q3 studies on their own data by matching this
// schema. Columns:
//
//   rack_id, server_index, component_index, fault, true_positive,
//   burst_id, open_hour, close_hour
//
// `fault` uses the Table II description strings ("Disk failure", ...);
// hours are integers since the observation epoch; component_index is -1
// for server-level faults; burst_id is -1 for independent tickets (leave
// it -1 for imported data unless you track correlated events).
//
// Real RMA exports are dirty, so import is governed by an
// ingest::ErrorPolicy:
//
//   kStrict     — throw util::precondition_error on the first malformed
//                 record (the historical behavior and still the default).
//   kQuarantine — collect each malformed record into an
//                 ingest::IngestReport with a typed reason code and the
//                 offending column, and keep reading.
//   kRepair     — apply two documented fixups first: records whose
//                 close_hour precedes their open_hour have the two swapped
//                 (busted-clock skew), and exact duplicate records are
//                 dropped once (double-filed tickets). Both are recorded as
//                 repairs; whatever still fails is quarantined.
//
// A leading UTF-8 BOM and CR line endings are tolerated under all policies.
#pragma once

#include <iosfwd>
#include <string>

#include "rainshine/ingest/report.hpp"
#include "rainshine/simdc/tickets.hpp"

namespace rainshine::simdc {

void write_ticket_csv(const TicketLog& log, std::ostream& out);

/// Import controls.
struct TicketReadOptions {
  ingest::ErrorPolicy policy = ingest::ErrorPolicy::kStrict;
};

/// Parses a ticket CSV and validates every row against `fleet` (rack ids in
/// range, server/component slots within the rack's SKU shape, close after
/// open). Under kStrict, throws util::precondition_error whose message
/// carries the 1-based row (header = row 1) and the offending column name;
/// under the recoverable policies, bad rows are reported to `report` (if
/// non-null) instead. A missing or mismatched header always throws — there
/// is nothing to recover without the schema anchor.
[[nodiscard]] TicketLog read_ticket_csv(std::istream& in, const Fleet& fleet,
                                        const TicketReadOptions& options,
                                        ingest::IngestReport* report = nullptr);
[[nodiscard]] TicketLog read_ticket_csv(std::istream& in, const Fleet& fleet);

[[nodiscard]] TicketLog read_ticket_csv_file(const std::string& path,
                                             const Fleet& fleet,
                                             const TicketReadOptions& options,
                                             ingest::IngestReport* report = nullptr);
[[nodiscard]] TicketLog read_ticket_csv_file(const std::string& path,
                                             const Fleet& fleet);

}  // namespace rainshine::simdc
