#include "baselines/intra_object_store.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>

#include "causalec/inqueue.h"
#include "causalec/messages.h"
#include "common/expect.h"
#include "erasure/codes.h"

namespace causalec::baselines {

namespace {

struct FragAppMessage final : sim::Message {
  ObjectId object;
  erasure::Symbol fragment;
  Tag tag;
  std::size_t wire;
  FragAppMessage(ObjectId object_in, erasure::Symbol fragment_in, Tag tag_in,
                 std::size_t wire_in)
      : object(object_in),
        fragment(std::move(fragment_in)),
        tag(std::move(tag_in)),
        wire(wire_in) {}
  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "frag_app"; }
};

struct FragReqMessage final : sim::Message {
  OpId opid;
  ObjectId object;
  std::size_t wire;
  FragReqMessage(OpId opid_in, ObjectId object_in, std::size_t wire_in)
      : opid(opid_in), object(object_in), wire(wire_in) {}
  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "frag_req"; }
};

struct FragReplyMessage final : sim::Message {
  OpId opid;
  ObjectId object;
  erasure::Symbol fragment;
  Tag tag;
  std::size_t wire;
  FragReplyMessage(OpId opid_in, ObjectId object_in,
                   erasure::Symbol fragment_in, Tag tag_in,
                   std::size_t wire_in)
      : opid(opid_in),
        object(object_in),
        fragment(std::move(fragment_in)),
        tag(std::move(tag_in)),
        wire(wire_in) {}
  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "frag_reply"; }
};

}  // namespace

class IntraObjectStore::Node final : public sim::Actor {
 public:
  Node(sim::Simulation* sim, const IntraObjectStoreConfig* config,
       const erasure::Code* code, NodeId id)
      : sim_(sim),
        config_(config),
        code_(code),
        id_(id),
        n_(config->num_servers),
        vc_(config->num_servers),
        latest_(config->num_objects) {}

  Tag write(ObjectId object, const erasure::Value& value) {
    vc_.increment(id_);
    Tag tag(vc_, id_ + 1);
    // Split into k fragments and encode all N codeword fragments.
    const std::size_t frag_bytes = config_->value_bytes / config_->k;
    std::vector<erasure::Value> fragments;
    fragments.reserve(config_->k);
    for (std::size_t f = 0; f < config_->k; ++f) {
      // Zero-copy: each fragment aliases the written value's buffer.
      fragments.push_back(value.slice(f * frag_bytes, frag_bytes));
    }
    const std::size_t wire =
        kHeaderBytes + frag_bytes + 8 * n_ + 8;
    for (NodeId j = 0; j < n_; ++j) {
      erasure::Symbol frag = code_->encode(j, fragments);
      if (j == id_) {
        store(object, tag, std::move(frag));
      } else {
        sim_->send(id_, j,
                   std::make_unique<FragAppMessage>(object, std::move(frag),
                                                    tag, wire));
      }
    }
    return tag;
  }

  void read(ObjectId object, ReadDone done) {
    const OpId opid = next_opid_++;
    Pending& pending = pending_[opid];
    pending.object = object;
    pending.done = std::move(done);
    pending.targets = nearest_servers(config_->k - 1);
    if (down_mask_ != 0) ++degraded_reads_;
    if (latest_[object]) {
      pending.responses[id_] = *latest_[object];
    } else {
      pending.responses[id_] = {Tag::zero(n_),
                                code_->zero_symbol(id_)};
    }
    if (try_complete(opid)) return;  // k == 1 degenerate case
    for (NodeId t : pending.targets) {
      sim_->send(id_, t,
                 std::make_unique<FragReqMessage>(opid, object,
                                                  kHeaderBytes + 8));
    }
  }

  void on_message(NodeId from, sim::MessagePtr message) override {
    if (auto* app = dynamic_cast<FragAppMessage*>(message.get())) {
      inqueue_.insert(
          InQueue::Entry{from, app->object, app->fragment, app->tag});
      drain_inqueue();
    } else if (auto* req = dynamic_cast<FragReqMessage*>(message.get())) {
      erasure::Symbol frag = latest_[req->object]
                                 ? latest_[req->object]->second
                                 : code_->zero_symbol(id_);
      Tag tag = latest_[req->object] ? latest_[req->object]->first
                                     : Tag::zero(n_);
      const std::size_t wire =
          kHeaderBytes + frag.size() + 8 * n_ + 8;
      sim_->send(id_, from,
                 std::make_unique<FragReplyMessage>(
                     req->opid, req->object, std::move(frag), std::move(tag),
                     wire));
    } else if (auto* reply = dynamic_cast<FragReplyMessage*>(message.get())) {
      auto it = pending_.find(reply->opid);
      if (it == pending_.end()) return;
      it->second.responses[from] = {reply->tag, reply->fragment};
      if (!try_complete(reply->opid)) {
        maybe_retry(reply->opid);
      }
    } else {
      CEC_CHECK_MSG(false, "unexpected message in IntraObjectStore");
    }
  }

  std::size_t stored_bytes() const {
    std::size_t bytes = 0;
    for (const auto& slot : latest_) {
      if (slot) bytes += slot->second.size();
    }
    return bytes;
  }

  void set_peer_down(NodeId peer, bool down) {
    if (down) {
      down_mask_ |= 1u << peer;
    } else {
      down_mask_ &= ~(1u << peer);
    }
  }

  std::uint64_t degraded_reads() const { return degraded_reads_; }

 private:
  struct Pending {
    ObjectId object = 0;
    ReadDone done;
    std::vector<NodeId> targets;
    std::map<NodeId, std::pair<Tag, erasure::Symbol>> responses;
    bool retry_scheduled = false;
  };

  void store(ObjectId object, const Tag& tag, erasure::Symbol fragment) {
    auto& slot = latest_[object];
    if (!slot || slot->first < tag) {
      slot.emplace(tag, std::move(fragment));
    }
  }

  void drain_inqueue() {
    while (true) {
      auto popped =
          inqueue_.pop_first_applicable([&](const InQueue::Entry& e) {
            if (e.tag.ts[e.origin] != vc_[e.origin] + 1) return false;
            for (NodeId p = 0; p < n_; ++p) {
              if (p != e.origin && e.tag.ts[p] > vc_[p]) return false;
            }
            return true;
          });
      if (!popped) return;
      vc_.set(popped->origin, popped->tag.ts[popped->origin]);
      store(popped->object, popped->tag, std::move(popped->value));
    }
  }

  /// True when k fragments of a common version are available -> decode.
  bool try_complete(OpId opid) {
    auto it = pending_.find(opid);
    if (it == pending_.end()) return true;
    Pending& pending = it->second;
    // Group responses by tag; look for one with >= k members.
    std::map<Tag, std::vector<NodeId>> by_tag;
    for (const auto& [server, resp] : pending.responses) {
      by_tag[resp.first].push_back(server);
    }
    for (auto& [tag, servers] : by_tag) {
      if (servers.size() < config_->k) continue;
      servers.resize(config_->k);
      std::vector<erasure::Symbol> symbols;
      for (NodeId s : servers) {
        symbols.push_back(pending.responses[s].second);
      }
      // Reassemble: decode each data fragment and concatenate into one
      // fresh arena.
      std::vector<std::uint8_t> bytes;
      bytes.reserve(config_->value_bytes);
      for (ObjectId f = 0; f < config_->k; ++f) {
        const erasure::Value frag = code_->decode(f, servers, symbols);
        bytes.insert(bytes.end(), frag.begin(), frag.end());
      }
      erasure::Value value(std::move(bytes));
      ReadDone done = std::move(pending.done);
      const Tag result_tag = tag;
      pending_.erase(it);
      done(value, result_tag);
      return true;
    }
    return false;
  }

  /// All targets responded but versions are skewed: re-poll the stale ones
  /// after a delay (they will catch up via causal apply).
  void maybe_retry(OpId opid) {
    auto it = pending_.find(opid);
    if (it == pending_.end()) return;
    Pending& pending = it->second;
    if (pending.responses.size() < pending.targets.size() + 1) return;
    if (pending.retry_scheduled) return;
    pending.retry_scheduled = true;
    sim_->schedule_after(config_->retry_ns, [this, opid] {
      auto iter = pending_.find(opid);
      if (iter == pending_.end()) return;
      iter->second.retry_scheduled = false;
      // Refresh our own fragment and re-poll everyone.
      const ObjectId object = iter->second.object;
      if (latest_[object]) {
        iter->second.responses[id_] = *latest_[object];
      }
      if (try_complete(opid)) return;
      for (NodeId t : iter->second.targets) {
        sim_->send(id_, t,
                   std::make_unique<FragReqMessage>(
                       opid, object, kHeaderBytes + 8));
      }
    });
  }

  std::vector<NodeId> nearest_servers(std::size_t count) const {
    std::vector<NodeId> others;
    for (NodeId o = 0; o < n_; ++o) {
      if (o != id_ && !(down_mask_ >> o & 1)) others.push_back(o);
    }
    std::sort(others.begin(), others.end(), [&](NodeId a, NodeId b) {
      const double ra = config_->rtt_ms.empty()
                            ? static_cast<double>(a)
                            : config_->rtt_ms[id_][a];
      const double rb = config_->rtt_ms.empty()
                            ? static_cast<double>(b)
                            : config_->rtt_ms[id_][b];
      return ra != rb ? ra < rb : a < b;
    });
    others.resize(std::min(count, others.size()));
    return others;
  }

  sim::Simulation* sim_;
  const IntraObjectStoreConfig* config_;
  const erasure::Code* code_;
  NodeId id_;
  std::size_t n_;
  VectorClock vc_;
  InQueue inqueue_;
  // Latest fragment per object (LWW by tag).
  std::vector<std::optional<std::pair<Tag, erasure::Symbol>>> latest_;
  std::map<OpId, Pending> pending_;
  OpId next_opid_ = 1;
  std::uint32_t down_mask_ = 0;  // fail-stop view fed by set_server_down
  std::uint64_t degraded_reads_ = 0;
};

IntraObjectStore::IntraObjectStore(sim::Simulation* sim,
                                   IntraObjectStoreConfig config)
    : config_(std::move(config)) {
  CEC_CHECK(config_.num_servers >= config_.k && config_.k >= 1);
  CEC_CHECK(config_.value_bytes % config_.k == 0);
  code_ = erasure::make_systematic_rs(config_.num_servers, config_.k,
                                      config_.value_bytes / config_.k);
  nodes_.reserve(config_.num_servers);
  for (NodeId s = 0; s < config_.num_servers; ++s) {
    nodes_.push_back(std::make_unique<Node>(sim, &config_, code_.get(), s));
    const NodeId sim_id = sim->add_node(nodes_.back().get());
    CEC_CHECK(sim_id == s);
  }
}

IntraObjectStore::~IntraObjectStore() = default;

std::size_t IntraObjectStore::num_servers() const { return nodes_.size(); }

Tag IntraObjectStore::write(NodeId at, ObjectId object,
                            erasure::Value value) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK(value.size() == config_.value_bytes);
  CEC_CHECK(object < config_.num_objects);
  return nodes_[at]->write(object, value);
}

void IntraObjectStore::read(NodeId at, ObjectId object, ReadDone done) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK(object < config_.num_objects);
  nodes_[at]->read(object, std::move(done));
}

std::size_t IntraObjectStore::stored_bytes(NodeId server) const {
  CEC_CHECK(server < nodes_.size());
  return nodes_[server]->stored_bytes();
}

void IntraObjectStore::set_server_down(NodeId server, bool down) {
  CEC_CHECK(server < nodes_.size());
  for (NodeId s = 0; s < nodes_.size(); ++s) {
    if (s != server) nodes_[s]->set_peer_down(server, down);
  }
}

std::uint64_t IntraObjectStore::degraded_reads() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->degraded_reads();
  return total;
}

}  // namespace causalec::baselines
