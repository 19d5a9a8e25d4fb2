#include "online/arrival_log.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/string_util.h"

namespace webmon {
namespace {

Status Malformed(size_t line, const std::string& what) {
  return Status::InvalidArgument("arrival log line " + std::to_string(line) +
                                 ": " + what);
}

}  // namespace

std::string SerializeArrivalLog(const ArrivalLog& log) {
  std::string out = "webmon-arrivals 2\n";
  for (const ArrivalEvent& event : log) {
    switch (event.kind) {
      case ArrivalKind::kSubmit: {
        out += "submit ";
        AppendNumber(&out, event.seq);
        out += ' ';
        AppendNumber(&out, event.effective);
        out += ' ';
        AppendNumber(&out, event.assigned_id);
        out += ' ';
        AppendNumber(&out, event.weight);
        out += ' ';
        AppendNumber(&out, event.required);
        out += ' ';
        AppendNumber(&out, event.eis.size());
        for (const auto& [resource, start, finish] : event.eis) {
          out += ' ';
          AppendNumber(&out, resource);
          out += ' ';
          AppendNumber(&out, start);
          out += ' ';
          AppendNumber(&out, finish);
        }
        break;
      }
      case ArrivalKind::kPush:
        out += "push ";
        AppendNumber(&out, event.seq);
        out += ' ';
        AppendNumber(&out, event.effective);
        out += ' ';
        AppendNumber(&out, event.resource);
        break;
      case ArrivalKind::kCancel:
        out += "cancel ";
        AppendNumber(&out, event.seq);
        out += ' ';
        AppendNumber(&out, event.effective);
        out += ' ';
        AppendNumber(&out, event.assigned_id);
        break;
    }
    out += '\n';
  }
  return out;
}

StatusOr<ArrivalLog> ParseArrivalLog(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("arrival log is empty (missing header)");
  }
  int version = 0;
  {
    std::istringstream header(line);
    std::string magic;
    if (!(header >> magic >> version) || magic != "webmon-arrivals") {
      return Status::InvalidArgument(
          "arrival log header is not \"webmon-arrivals <version>\"");
    }
    if (version < 1 || version > kArrivalLogFormatVersion) {
      return Status::InvalidArgument("unsupported arrival log version " +
                                     std::to_string(version));
    }
  }

  ArrivalLog log;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    ArrivalEvent event;
    if (kind == "submit") {
      event.kind = ArrivalKind::kSubmit;
      uint64_t num_eis = 0;
      if (!(fields >> event.seq >> event.effective >> event.assigned_id >>
            event.weight >> event.required >> num_eis)) {
        return Malformed(line_number, "truncated submit record");
      }
      // The count is untrusted input: reserve no more windows than the
      // line can carry (each is three integers plus separators, >= 6
      // bytes); a larger count fails below as a truncated record.
      event.eis.reserve(std::min<uint64_t>(num_eis, line.size() / 6));
      for (uint64_t i = 0; i < num_eis; ++i) {
        ResourceId resource = 0;
        Chronon start = 0;
        Chronon finish = 0;
        if (!(fields >> resource >> start >> finish)) {
          return Malformed(line_number, "submit record declares " +
                                            std::to_string(num_eis) +
                                            " windows but carries fewer");
        }
        event.eis.emplace_back(resource, start, finish);
      }
    } else if (kind == "push") {
      event.kind = ArrivalKind::kPush;
      if (!(fields >> event.seq >> event.effective >> event.resource)) {
        return Malformed(line_number, "truncated push record");
      }
    } else if (kind == "cancel") {
      if (version < 2) {
        return Malformed(line_number,
                         "cancel records require format version 2");
      }
      event.kind = ArrivalKind::kCancel;
      if (!(fields >> event.seq >> event.effective >> event.assigned_id)) {
        return Malformed(line_number, "truncated cancel record");
      }
    } else {
      return Malformed(line_number, "unknown record kind \"" + kind + "\"");
    }
    std::string trailing;
    if (fields >> trailing) {
      return Malformed(line_number, "trailing fields after the record");
    }
    log.push_back(std::move(event));
  }
  return log;
}

Status AuditArrivalLog(const ArrivalLog& log) {
  uint64_t next_id = 0;
  std::vector<uint8_t> cancelled;
  for (size_t i = 0; i < log.size(); ++i) {
    const ArrivalEvent& event = log[i];
    if (i > 0) {
      if (event.seq <= log[i - 1].seq) {
        return Status::InvalidArgument(
            "event " + std::to_string(i) + ": sequence numbers must "
            "strictly increase");
      }
      if (event.effective < log[i - 1].effective) {
        return Status::InvalidArgument(
            "event " + std::to_string(i) + ": effective chronons must not "
            "decrease");
      }
    }
    switch (event.kind) {
      case ArrivalKind::kSubmit:
        if (event.eis.empty()) {
          return Status::InvalidArgument(
              "event " + std::to_string(i) + ": submit carries no windows");
        }
        if (event.assigned_id != next_id) {
          return Status::InvalidArgument(
              "event " + std::to_string(i) + ": submit assigned id " +
              std::to_string(event.assigned_id) + " where dense order " +
              "requires " + std::to_string(next_id));
        }
        ++next_id;
        cancelled.push_back(0);
        break;
      case ArrivalKind::kCancel:
        if (event.assigned_id >= next_id) {
          return Status::InvalidArgument(
              "event " + std::to_string(i) + ": cancel targets id " +
              std::to_string(event.assigned_id) +
              " before any submit assigned it");
        }
        if (cancelled[event.assigned_id]) {
          return Status::InvalidArgument(
              "event " + std::to_string(i) + ": id " +
              std::to_string(event.assigned_id) + " is cancelled twice");
        }
        cancelled[event.assigned_id] = 1;
        break;
      case ArrivalKind::kPush:
        break;
    }
  }
  return Status::OK();
}

}  // namespace webmon
