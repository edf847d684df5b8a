#include "causalec/codec.h"

#include <cstring>

#include "causalec/wire_format.h"
#include "common/expect.h"

namespace causalec {

namespace {

using wire::Writer;

enum class MsgType : std::uint8_t {
  kApp = 1,
  kDel = 2,
  kValInq = 3,
  kValResp = 4,
  kValRespEncoded = 5,
  kRecoverDigest = 6,
  kRecoverDigestReply = 7,
  kRecoverPull = 8,
  kRecoverPush = 9,
};

// Minimal serialized footprint of the variable-size primitives; element
// counts read off the wire are capped at remaining / footprint before they
// size an allocation, so a hostile length field can never drive a huge
// reserve (let alone an out-of-bounds read -- SafeReader latches those).
constexpr std::size_t kClockEntryBytes = 8;            // one u64 component
constexpr std::size_t kMinTagBytes = 4 + 8;            // empty clock + id
constexpr std::size_t kMinHistoryItemBytes = 4 + kMinTagBytes + 4;
constexpr std::size_t kMinInqueueItemBytes = 4 + 4 + kMinTagBytes + 4;
constexpr std::size_t kMinDelItemBytes = 4 + 4 + kMinTagBytes;

}  // namespace

namespace {

void write_message(Writer& w, const sim::Message& message) {
  if (const auto* app = dynamic_cast<const AppMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kApp));
    w.u64(app->wire);
    w.u32(app->object);
    w.bytes(app->value);
    w.tag(app->tag);
  } else if (const auto* del = dynamic_cast<const DelMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kDel));
    w.u64(del->wire);
    w.u32(del->object);
    w.u32(del->origin);
    w.u8(del->forward ? 1 : 0);
    w.tag(del->tag);
  } else if (const auto* inq = dynamic_cast<const ValInqMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kValInq));
    w.u64(inq->wire);
    w.u64(inq->client);
    w.u64(inq->opid);
    w.u32(inq->object);
    w.tagvec(inq->wanted);
  } else if (const auto* resp =
                 dynamic_cast<const ValRespMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kValResp));
    w.u64(resp->wire);
    w.u64(resp->client);
    w.u64(resp->opid);
    w.u32(resp->object);
    w.bytes(resp->value);
    w.tagvec(resp->requested);
  } else if (const auto* enc =
                 dynamic_cast<const ValRespEncodedMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kValRespEncoded));
    w.u64(enc->wire);
    w.u64(enc->client);
    w.u64(enc->opid);
    w.u32(enc->object);
    w.bytes(enc->symbol);
    w.tagvec(enc->symbol_tags);
    w.tagvec(enc->requested);
  } else if (const auto* dig =
                 dynamic_cast<const RecoverDigestMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kRecoverDigest));
    w.u64(dig->wire);
    w.u64(dig->epoch);
    w.clock(dig->vc);
  } else if (const auto* reply =
                 dynamic_cast<const RecoverDigestReplyMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kRecoverDigestReply));
    w.u64(reply->wire);
    w.u64(reply->epoch);
    w.clock(reply->vc);
  } else if (const auto* pull =
                 dynamic_cast<const RecoverPullMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kRecoverPull));
    w.u64(pull->wire);
    w.u64(pull->epoch);
    w.clock(pull->vc);
  } else if (const auto* push =
                 dynamic_cast<const RecoverPushMessage*>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kRecoverPush));
    w.u64(push->wire);
    w.u64(push->epoch);
    w.clock(push->vc);
    w.u32(static_cast<std::uint32_t>(push->history.size()));
    for (const auto& h : push->history) {
      w.u32(h.object);
      w.tag(h.tag);
      w.bytes(h.value);
    }
    w.u32(static_cast<std::uint32_t>(push->inqueue.size()));
    for (const auto& q : push->inqueue) {
      w.u32(q.origin);
      w.u32(q.object);
      w.tag(q.tag);
      w.bytes(q.value);
    }
    w.u32(static_cast<std::uint32_t>(push->dels.size()));
    for (const auto& d : push->dels) {
      w.u32(d.object);
      w.u32(d.server);
      w.tag(d.tag);
    }
  } else {
    CEC_CHECK_MSG(false, "codec: unknown message type "
                             << message.type_name());
  }
  // Optional 16-byte trace-context trailer. Appended only when the message
  // is traced, so untraced frames stay byte-identical to the pre-trailer
  // format (and old frames without the trailer still decode -- see the
  // matching branch in deserialize_message).
  if (message.trace.traced()) {
    w.trace_context(message.trace);
  }
}

}  // namespace

erasure::Buffer serialize_message_frame(const sim::Message& message) {
  // wire_bytes() is the cost model's estimate of the serialized size --
  // close enough that the common messages need no reallocation.
  Writer w(16 + message.wire_bytes());
  write_message(w, message);
  return w.take_frame();
}

sim::MessagePtr deserialize_message(std::span<const std::uint8_t> buffer) {
  return deserialize_message(erasure::Buffer::copy_of(buffer));
}

sim::MessagePtr deserialize_message(erasure::Buffer frame) {
  std::string error;
  auto out = try_deserialize_message(std::move(frame), &error);
  CEC_CHECK_MSG(out != nullptr, "codec: " << error);
  return out;
}

sim::MessagePtr try_deserialize_message(erasure::Buffer frame,
                                        std::string* error) {
  wire::SafeReader r(std::move(frame));
  const auto type = static_cast<MsgType>(r.u8());
  const std::uint64_t wire = r.u64();
  // Per-primitive element caps, all derived from the bytes actually in the
  // frame (see the kMin*Bytes constants): loose upper bounds -- SafeReader
  // still bounds-checks every read -- but tight enough that no corrupted
  // count can size an allocation beyond the frame itself.
  const std::size_t body = r.remaining();
  const std::size_t clock_cap = body / kClockEntryBytes;
  const std::size_t tag_cap = body / kMinTagBytes;
  // The WireModel argument is irrelevant: the recorded wire size (the cost
  // model's output at the sender) is restored verbatim below.
  const WireModel dummy;
  sim::MessagePtr out;
  switch (type) {
    case MsgType::kApp: {
      const ObjectId object = r.u32();
      auto value = r.bytes(body);
      auto tag = r.tag(clock_cap);
      auto msg = std::make_unique<AppMessage>(object, std::move(value),
                                              std::move(tag), dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    case MsgType::kDel: {
      const ObjectId object = r.u32();
      const NodeId origin = r.u32();
      const bool forward = r.u8() != 0;
      auto tag = r.tag(clock_cap);
      auto msg = std::make_unique<DelMessage>(object, std::move(tag), origin,
                                              forward, dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    case MsgType::kValInq: {
      const ClientId client = r.u64();
      const OpId opid = r.u64();
      const ObjectId object = r.u32();
      auto wanted = r.tagvec(tag_cap, clock_cap);
      auto msg = std::make_unique<ValInqMessage>(client, opid, object,
                                                 std::move(wanted), dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    case MsgType::kValResp: {
      const ClientId client = r.u64();
      const OpId opid = r.u64();
      const ObjectId object = r.u32();
      auto value = r.bytes(body);
      auto requested = r.tagvec(tag_cap, clock_cap);
      auto msg = std::make_unique<ValRespMessage>(client, opid, object,
                                                  std::move(value),
                                                  std::move(requested),
                                                  dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    case MsgType::kValRespEncoded: {
      const ClientId client = r.u64();
      const OpId opid = r.u64();
      const ObjectId object = r.u32();
      auto symbol = r.bytes(body);
      auto symbol_tags = r.tagvec(tag_cap, clock_cap);
      auto requested = r.tagvec(tag_cap, clock_cap);
      auto msg = std::make_unique<ValRespEncodedMessage>(
          client, opid, object, std::move(symbol), std::move(symbol_tags),
          std::move(requested), dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    case MsgType::kRecoverDigest: {
      const std::uint64_t epoch = r.u64();
      auto vc = r.clock(clock_cap);
      auto msg = std::make_unique<RecoverDigestMessage>(epoch, std::move(vc),
                                                        dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    case MsgType::kRecoverDigestReply: {
      const std::uint64_t epoch = r.u64();
      auto vc = r.clock(clock_cap);
      auto msg = std::make_unique<RecoverDigestReplyMessage>(
          epoch, std::move(vc), dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    case MsgType::kRecoverPull: {
      const std::uint64_t epoch = r.u64();
      auto vc = r.clock(clock_cap);
      auto msg = std::make_unique<RecoverPullMessage>(epoch, std::move(vc),
                                                      dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    case MsgType::kRecoverPush: {
      const std::uint64_t epoch = r.u64();
      auto vc = r.clock(clock_cap);
      // Counts are validated against remaining bytes *before* they size the
      // vectors; on failure the reader is latched and the loops see zeroes.
      const auto checked_count = [&r](std::size_t min_item_bytes,
                                      const char* what) -> std::size_t {
        const std::uint32_t count = r.u32();
        if (count > r.remaining() / min_item_bytes) {
          r.fail(what);
          return 0;
        }
        return count;
      };
      std::vector<RecoverPushMessage::HistoryItem> history(checked_count(
          kMinHistoryItemBytes, "history count exceeds frame"));
      for (auto& h : history) {
        h.object = r.u32();
        h.tag = r.tag(clock_cap);
        h.value = r.bytes(body);
      }
      std::vector<RecoverPushMessage::InqueueItem> inqueue(checked_count(
          kMinInqueueItemBytes, "inqueue count exceeds frame"));
      for (auto& q : inqueue) {
        q.origin = r.u32();
        q.object = r.u32();
        q.tag = r.tag(clock_cap);
        q.value = r.bytes(body);
      }
      std::vector<RecoverPushMessage::DelItem> dels(checked_count(
          kMinDelItemBytes, "del count exceeds frame"));
      for (auto& d : dels) {
        d.object = r.u32();
        d.server = r.u32();
        d.tag = r.tag(clock_cap);
      }
      auto msg = std::make_unique<RecoverPushMessage>(
          epoch, std::move(vc), std::move(history), std::move(inqueue),
          std::move(dels), dummy);
      msg->wire = wire;
      out = std::move(msg);
      break;
    }
    default:
      r.fail("unknown message type byte");
      break;
  }
  // Trace-context trailer: present iff exactly 16 bytes follow the body.
  // Frames from before trace propagation (or untraced sends) end here and
  // decode to the default "not traced" context.
  if (r.ok() && r.remaining() == wire::kTraceContextBytes) {
    out->trace.trace_id = r.u64();
    out->trace.span_id = r.u64();
  }
  if (!r.done()) {
    if (error != nullptr) *error = r.ok() ? "trailing bytes" : r.error();
    return nullptr;
  }
  return out;
}

}  // namespace causalec
