#include "shard/event_stream.h"

#include <sstream>

#include "util/string_util.h"

namespace webmon {
namespace {

Status Malformed(size_t line, const std::string& what) {
  return Status::InvalidArgument("shard stream line " + std::to_string(line) +
                                 ": " + what);
}

}  // namespace

const char* ShardEventKindName(ShardEventKind kind) {
  switch (kind) {
    case ShardEventKind::kProbe:
      return "probe";
    case ShardEventKind::kPush:
      return "push";
    case ShardEventKind::kCapture:
      return "capture";
    case ShardEventKind::kExpire:
      return "expire";
    case ShardEventKind::kCancel:
      return "cancel";
    case ShardEventKind::kSpend:
      return "spend";
  }
  return "unknown";
}

std::string SerializeShardStream(const ShardStream& stream) {
  std::string out = "webmon-shardstream 1\nshard ";
  AppendNumber(&out, stream.shard_id);
  out += ' ';
  AppendNumber(&out, stream.num_shards);
  out += ' ';
  AppendNumber(&out, stream.num_resources);
  out += ' ';
  AppendNumber(&out, stream.horizon);
  out += '\n';
  for (const ShardEvent& event : stream.events) {
    out += ShardEventKindName(event.kind);
    out += ' ';
    AppendNumber(&out, event.seq);
    out += ' ';
    AppendNumber(&out, event.chronon);
    out += ' ';
    switch (event.kind) {
      case ShardEventKind::kProbe:
      case ShardEventKind::kPush:
        AppendNumber(&out, event.resource);
        break;
      case ShardEventKind::kCapture:
      case ShardEventKind::kExpire:
      case ShardEventKind::kCancel:
        AppendNumber(&out, event.cei);
        break;
      case ShardEventKind::kSpend:
        AppendNumber(&out, event.attempts);
        break;
    }
    out += '\n';
  }
  return out;
}

StatusOr<ShardStream> ParseShardStream(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("shard stream is empty (missing header)");
  }
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version) || magic != "webmon-shardstream") {
      return Status::InvalidArgument(
          "shard stream header is not \"webmon-shardstream <version>\"");
    }
    if (version != kShardStreamFormatVersion) {
      return Status::InvalidArgument("unsupported shard stream version " +
                                     std::to_string(version));
    }
  }
  ShardStream stream;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("shard stream is missing the shard line");
  }
  {
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> kind >> stream.shard_id >> stream.num_shards >>
          stream.num_resources >> stream.horizon) ||
        kind != "shard") {
      return Malformed(2, "expected \"shard <id> <shards> <resources> "
                          "<horizon>\"");
    }
  }

  size_t line_number = 2;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    ShardEvent event;
    bool ok = false;
    if (kind == "probe" || kind == "push") {
      event.kind =
          kind == "probe" ? ShardEventKind::kProbe : ShardEventKind::kPush;
      ok = static_cast<bool>(fields >> event.seq >> event.chronon >>
                             event.resource);
    } else if (kind == "capture" || kind == "expire" || kind == "cancel") {
      event.kind = kind == "capture" ? ShardEventKind::kCapture
                   : kind == "expire" ? ShardEventKind::kExpire
                                      : ShardEventKind::kCancel;
      ok = static_cast<bool>(fields >> event.seq >> event.chronon >>
                             event.cei);
    } else if (kind == "spend") {
      event.kind = ShardEventKind::kSpend;
      ok = static_cast<bool>(fields >> event.seq >> event.chronon >>
                             event.attempts);
    } else {
      return Malformed(line_number, "unknown record kind \"" + kind + "\"");
    }
    if (!ok) {
      return Malformed(line_number, "truncated " + kind + " record");
    }
    std::string trailing;
    if (fields >> trailing) {
      return Malformed(line_number, "trailing fields after the record");
    }
    stream.events.push_back(event);
  }
  return stream;
}

Status AuditShardStream(const ShardStream& stream) {
  if (stream.num_shards < 1 || stream.shard_id >= stream.num_shards) {
    return Status::InvalidArgument("shard id " +
                                   std::to_string(stream.shard_id) +
                                   " outside the declared fleet of " +
                                   std::to_string(stream.num_shards));
  }
  if (stream.horizon <= 0) {
    return Status::InvalidArgument("shard stream horizon must be positive");
  }
  Chronon spend_chronon = -1;
  for (size_t i = 0; i < stream.events.size(); ++i) {
    const ShardEvent& event = stream.events[i];
    // The "event i: " prefix is built on the error path only: the audit
    // runs over every record of every merged stream.
    auto invalid = [i](const char* what) {
      return Status::InvalidArgument("event " + std::to_string(i) + ": " +
                                     what);
    };
    if (event.seq != i) {
      return invalid("sequence numbers must be dense from 0");
    }
    if (i > 0 && event.chronon < stream.events[i - 1].chronon) {
      return invalid("chronons must not decrease");
    }
    if (event.chronon < 0 || event.chronon >= stream.horizon) {
      return invalid("chronon outside the epoch");
    }
    switch (event.kind) {
      case ShardEventKind::kProbe:
      case ShardEventKind::kPush:
        if (event.resource >= stream.num_resources) {
          return invalid("resource outside the global space");
        }
        break;
      case ShardEventKind::kCapture:
      case ShardEventKind::kExpire:
      case ShardEventKind::kCancel:
        break;
      case ShardEventKind::kSpend:
        if (event.attempts <= 0) {
          return invalid("spend must carry a positive attempt count");
        }
        if (event.chronon == spend_chronon) {
          return invalid("more than one spend record in a chronon");
        }
        spend_chronon = event.chronon;
        break;
    }
  }
  return Status::OK();
}

}  // namespace webmon
