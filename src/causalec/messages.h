// Server-to-server messages of the CausalEC protocol (Algorithms 1-3) with
// wire-size accounting.
//
// Client <-> server traffic is not modeled as network messages: clients are
// co-located with their server (the paper partitions clients among servers
// precisely so that client operations involve no wide-area hop).
#pragma once

#include <cstdint>
#include <utility>

#include "causalec/config.h"
#include "causalec/tag.h"
#include "erasure/value.h"
#include "sim/simulation.h"

namespace causalec {

/// Fixed per-message envelope bytes (type, src, dst, object id, opid...),
/// charged alike by CausalEC's messages and by both baselines' stores, so
/// E1-E3 compare the three under one envelope.
inline constexpr std::size_t kHeaderBytes = 16;

/// Byte-size model shared by all messages of one cluster.
struct WireModel {
  std::size_t tag_bytes = 0;     // one tag
  std::size_t tagvec_bytes = 0;  // a full K-entry tag vector

  static WireModel make(const ServerConfig& config, std::size_t num_servers,
                        std::size_t num_objects) {
    WireModel wm;
    wm.tag_bytes = config.metadata == MetadataMode::kLamport
                       ? 16  // Lamport scalar + client id
                       : 8 * num_servers + 8;
    wm.tagvec_bytes = wm.tag_bytes * num_objects;
    return wm;
  }
};

/// <app, X, v, t>: write propagation (Alg. 1 line 6).
struct AppMessage final : sim::Message {
  ObjectId object;
  erasure::Value value;
  Tag tag;
  std::size_t wire;

  AppMessage(ObjectId object_in, erasure::Value value_in, Tag tag_in,
             const WireModel& wm)
      : object(object_in),
        value(std::move(value_in)),
        tag(std::move(tag_in)),
        wire(kHeaderBytes + value.size() + wm.tag_bytes) {}

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "app"; }
};

/// <del, X, t>: garbage-collection progress (Alg. 3 lines 20/32/48).
///
/// `origin` is the server announcing the deletion; it differs from the
/// network-level sender only in the Appendix G leader-forwarding variant,
/// where a server sends one del to the leader (forward = true) and the
/// leader fans it out on its behalf.
struct DelMessage final : sim::Message {
  ObjectId object;
  Tag tag;
  NodeId origin;
  bool forward;
  std::size_t wire;

  DelMessage(ObjectId object_in, Tag tag_in, NodeId origin_in,
             bool forward_in, const WireModel& wm)
      : object(object_in),
        tag(std::move(tag_in)),
        origin(origin_in),
        forward(forward_in),
        wire(kHeaderBytes + wm.tag_bytes) {}

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "del"; }
};

/// <val_inq, clientid, opid, X, wantedtagvec>: read inquiry (Alg. 1 line 18,
/// Alg. 3 line 25).
struct ValInqMessage final : sim::Message {
  ClientId client;
  OpId opid;
  ObjectId object;
  TagVector wanted;
  std::size_t wire;

  ValInqMessage(ClientId client_in, OpId opid_in, ObjectId object_in,
                TagVector wanted_in, const WireModel& wm)
      : client(client_in),
        opid(opid_in),
        object(object_in),
        wanted(std::move(wanted_in)),
        wire(kHeaderBytes + wm.tagvec_bytes) {}

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "val_inq"; }
};

/// <val_resp, ...>: uncoded response to an inquiry (Alg. 2 line 5).
struct ValRespMessage final : sim::Message {
  ClientId client;
  OpId opid;
  ObjectId object;
  erasure::Value value;
  TagVector requested;
  std::size_t wire;

  ValRespMessage(ClientId client_in, OpId opid_in, ObjectId object_in,
                 erasure::Value value_in, TagVector requested_in,
                 const WireModel& wm)
      : client(client_in),
        opid(opid_in),
        object(object_in),
        value(std::move(value_in)),
        requested(std::move(requested_in)),
        wire(kHeaderBytes + value.size() + wm.tagvec_bytes) {}

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "val_resp"; }
};

// ---------------------------------------------------------------------------
// Rejoin catch-up messages (crash-recovery extension, DESIGN.md §9).
//
// A server that restarts from its durable state broadcasts a digest of its
// vector clock; each live peer replies with its own clock, the recovering
// server pulls what it missed, and the peer pushes the history/del/inqueue
// entries the digest does not cover. `epoch` stamps one recovery round so
// late replies from an earlier round are ignored.
// ---------------------------------------------------------------------------

/// <recover_digest, epoch, vc>: recovering server -> everyone.
struct RecoverDigestMessage final : sim::Message {
  std::uint64_t epoch;
  VectorClock vc;
  std::size_t wire;

  RecoverDigestMessage(std::uint64_t epoch_in, VectorClock vc_in,
                       const WireModel& wm)
      : epoch(epoch_in),
        vc(std::move(vc_in)),
        wire(kHeaderBytes + wm.tag_bytes) {}

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "recover_digest"; }
};

/// <recover_digest_reply, epoch, vc>: peer -> recovering server.
struct RecoverDigestReplyMessage final : sim::Message {
  std::uint64_t epoch;
  VectorClock vc;
  std::size_t wire;

  RecoverDigestReplyMessage(std::uint64_t epoch_in, VectorClock vc_in,
                            const WireModel& wm)
      : epoch(epoch_in),
        vc(std::move(vc_in)),
        wire(kHeaderBytes + wm.tag_bytes) {}

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "recover_digest_reply"; }
};

/// <recover_pull, epoch, vc>: recovering server asks a peer for everything
/// its (post-replay) vector clock does not cover.
struct RecoverPullMessage final : sim::Message {
  std::uint64_t epoch;
  VectorClock vc;
  std::size_t wire;

  RecoverPullMessage(std::uint64_t epoch_in, VectorClock vc_in,
                     const WireModel& wm)
      : epoch(epoch_in),
        vc(std::move(vc_in)),
        wire(kHeaderBytes + wm.tag_bytes) {}

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "recover_pull"; }
};

/// <recover_push, epoch, vc, history, inqueue, dels>: catch-up payload. The
/// receiver inserts the history versions, merges the del announcements and
/// the sender's clock, and re-queues (or absorbs) the in-flight writes.
/// Sent peer -> recovering server in answer to a pull, and recovering
/// server -> peer when the digest reply shows the *peer* missed writes
/// (e.g. an app multicast lost to the crash).
struct RecoverPushMessage final : sim::Message {
  struct HistoryItem {
    ObjectId object;
    Tag tag;
    erasure::Value value;
  };
  struct InqueueItem {
    NodeId origin;
    ObjectId object;
    Tag tag;
    erasure::Value value;
  };
  struct DelItem {
    ObjectId object;
    NodeId server;
    Tag tag;
  };

  std::uint64_t epoch;
  VectorClock vc;  // the sender's clock at push time
  std::vector<HistoryItem> history;
  std::vector<InqueueItem> inqueue;
  std::vector<DelItem> dels;
  std::size_t wire;

  RecoverPushMessage(std::uint64_t epoch_in, VectorClock vc_in,
                     std::vector<HistoryItem> history_in,
                     std::vector<InqueueItem> inqueue_in,
                     std::vector<DelItem> dels_in, const WireModel& wm)
      : epoch(epoch_in),
        vc(std::move(vc_in)),
        history(std::move(history_in)),
        inqueue(std::move(inqueue_in)),
        dels(std::move(dels_in)),
        wire(kHeaderBytes + wm.tag_bytes) {
    for (const auto& h : history) wire += h.value.size() + wm.tag_bytes;
    for (const auto& q : inqueue) wire += q.value.size() + wm.tag_bytes;
    wire += dels.size() * wm.tag_bytes;
  }

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "recover_push"; }
};

/// <val_resp_encoded, M, ...>: re-encoded codeword symbol response
/// (Alg. 2 end of the val_inq handler).
struct ValRespEncodedMessage final : sim::Message {
  ClientId client;
  OpId opid;
  ObjectId object;
  erasure::Symbol symbol;   // ResponsetoValInq.val
  TagVector symbol_tags;    // ResponsetoValInq.tagvec
  TagVector requested;      // wantedtagvec echoed back
  std::size_t wire;

  ValRespEncodedMessage(ClientId client_in, OpId opid_in, ObjectId object_in,
                        erasure::Symbol symbol_in, TagVector symbol_tags_in,
                        TagVector requested_in, const WireModel& wm)
      : client(client_in),
        opid(opid_in),
        object(object_in),
        symbol(std::move(symbol_in)),
        symbol_tags(std::move(symbol_tags_in)),
        requested(std::move(requested_in)),
        wire(kHeaderBytes + symbol.size() + 2 * wm.tagvec_bytes) {}

  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "val_resp_encoded"; }
};

}  // namespace causalec
