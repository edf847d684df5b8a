#include "baselines/replicated_store.h"

#include <algorithm>
#include <limits>
#include <set>

#include "causalec/messages.h"
#include "common/expect.h"

namespace causalec::baselines {

namespace {

struct RepAppMessage final : sim::Message {
  ObjectId object;
  erasure::Value value;
  Tag tag;
  std::size_t wire;
  RepAppMessage(ObjectId object_in, erasure::Value value_in, Tag tag_in,
                std::size_t wire_in)
      : object(object_in),
        value(std::move(value_in)),
        tag(std::move(tag_in)),
        wire(wire_in) {}
  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "rep_app"; }
};

struct ReadFwdMessage final : sim::Message {
  OpId opid;
  ObjectId object;
  std::size_t wire;
  ReadFwdMessage(OpId opid_in, ObjectId object_in, std::size_t wire_in)
      : opid(opid_in), object(object_in), wire(wire_in) {}
  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "read_fwd"; }
};

struct ReadFwdReply final : sim::Message {
  OpId opid;
  ObjectId object;
  erasure::Value value;
  Tag tag;
  std::size_t wire;
  ReadFwdReply(OpId opid_in, ObjectId object_in, erasure::Value value_in,
               Tag tag_in, std::size_t wire_in)
      : opid(opid_in),
        object(object_in),
        value(std::move(value_in)),
        tag(std::move(tag_in)),
        wire(wire_in) {}
  std::size_t wire_bytes() const override { return wire; }
  const char* type_name() const override { return "read_fwd_reply"; }
};

}  // namespace

class ReplicatedStore::Node final : public sim::Actor {
 public:
  Node(sim::Simulation* sim, const ReplicatedStoreConfig* config, NodeId id,
       std::size_t n)
      : sim_(sim),
        config_(config),
        id_(id),
        n_(n),
        vc_(n),
        latest_(config->num_objects) {
    for (ObjectId x : config->placement[id]) placed_.insert(x);
  }

  bool placed(ObjectId object) const { return placed_.count(object) > 0; }

  Tag write(ObjectId object, erasure::Value value) {
    vc_.increment(id_);
    Tag tag(vc_, /*client=*/id_ + 1);
    store(object, tag, value);
    const std::size_t wire =
        kHeaderBytes + value.size() + 8 * n_ + 8;
    for (NodeId j = 0; j < n_; ++j) {
      if (j == id_) continue;
      sim_->send(id_, j,
                 std::make_unique<RepAppMessage>(object, value, tag, wire));
    }
    return tag;
  }

  void read(ObjectId object, ReadDone done) {
    if (placed(object)) {
      const auto& slot = latest_[object];
      done(slot ? slot->second : erasure::Value(config_->value_bytes, 0),
           slot ? slot->first : Tag::zero(n_));
      return;
    }
    // Forward to the nearest replica.
    const NodeId target = nearest_replica(object);
    const OpId opid = next_opid_++;
    pending_[opid] = std::move(done);
    sim_->send(id_, target,
               std::make_unique<ReadFwdMessage>(opid, object,
                                                kHeaderBytes + 8));
  }

  void on_message(NodeId from, sim::MessagePtr message) override {
    if (auto* app = dynamic_cast<RepAppMessage*>(message.get())) {
      inqueue_.insert(
          InQueue::Entry{from, app->object, app->value, app->tag});
      drain_inqueue();
    } else if (auto* fwd = dynamic_cast<ReadFwdMessage*>(message.get())) {
      const auto& slot = latest_[fwd->object];
      erasure::Value value =
          slot ? slot->second : erasure::Value(config_->value_bytes, 0);
      Tag tag = slot ? slot->first : Tag::zero(n_);
      const std::size_t wire =
          kHeaderBytes + value.size() + 8 * n_ + 8;
      sim_->send(id_, from,
                 std::make_unique<ReadFwdReply>(fwd->opid, fwd->object,
                                                std::move(value),
                                                std::move(tag), wire));
    } else if (auto* reply = dynamic_cast<ReadFwdReply*>(message.get())) {
      auto it = pending_.find(reply->opid);
      if (it == pending_.end()) return;
      ReadDone done = std::move(it->second);
      pending_.erase(it);
      done(reply->value, reply->tag);
    } else {
      CEC_CHECK_MSG(false, "unexpected message in ReplicatedStore");
    }
  }

  std::size_t stored_bytes() const {
    std::size_t bytes = 0;
    for (ObjectId x : config_->placement[id_]) {
      if (latest_[x]) bytes += latest_[x]->second.size();
    }
    return bytes;
  }

 private:
  void store(ObjectId object, const Tag& tag, const erasure::Value& value) {
    if (!placed(object)) return;  // non-replicas track causality only
    auto& slot = latest_[object];
    if (!slot || slot->first < tag) slot.emplace(tag, value);
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
      store(popped->object, popped->tag, popped->value);
    }
  }

  NodeId nearest_replica(ObjectId object) const {
    NodeId best = kNoNode;
    double best_rtt = std::numeric_limits<double>::infinity();
    for (NodeId host = 0; host < n_; ++host) {
      if (host == id_) continue;
      const auto& objs = config_->placement[host];
      if (std::find(objs.begin(), objs.end(), object) == objs.end()) continue;
      const double rtt = config_->rtt_ms.empty()
                             ? static_cast<double>(host)
                             : config_->rtt_ms[id_][host];
      if (rtt < best_rtt) {
        best_rtt = rtt;
        best = host;
      }
    }
    CEC_CHECK_MSG(best != kNoNode, "object placed nowhere reachable");
    return best;
  }

  sim::Simulation* sim_;
  const ReplicatedStoreConfig* config_;
  NodeId id_;
  std::size_t n_;
  VectorClock vc_;
  InQueue inqueue_;
  std::set<ObjectId> placed_;
  // Placed objects only: latest (tag, value) -- last-writer-wins.
  std::vector<std::optional<std::pair<Tag, erasure::Value>>> latest_;
  std::map<OpId, ReadDone> pending_;
  OpId next_opid_ = 1;
};

ReplicatedStore::ReplicatedStore(sim::Simulation* sim,
                                 ReplicatedStoreConfig config)
    : config_(std::move(config)) {
  const std::size_t n = config_.placement.size();
  CEC_CHECK(n > 0 && config_.num_objects > 0 && config_.value_bytes > 0);
  nodes_.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    nodes_.push_back(std::make_unique<Node>(sim, &config_, s, n));
    const NodeId sim_id = sim->add_node(nodes_.back().get());
    CEC_CHECK(sim_id == s);
  }
}

ReplicatedStore::~ReplicatedStore() = default;

std::size_t ReplicatedStore::num_servers() const { return nodes_.size(); }

Tag ReplicatedStore::write(NodeId at, ObjectId object, erasure::Value value) {
  CEC_CHECK(at < nodes_.size());
  CEC_CHECK(value.size() == config_.value_bytes);
  return nodes_[at]->write(object, std::move(value));
}

void ReplicatedStore::read(NodeId at, ObjectId object, ReadDone done) {
  CEC_CHECK(at < nodes_.size());
  nodes_[at]->read(object, std::move(done));
}

ReplicatedStoreConfig ReplicatedStore::full_replication(
    std::size_t num_servers, std::size_t num_objects,
    std::size_t value_bytes) {
  ReplicatedStoreConfig config;
  config.num_objects = num_objects;
  config.value_bytes = value_bytes;
  std::vector<ObjectId> all;
  for (ObjectId x = 0; x < num_objects; ++x) all.push_back(x);
  config.placement.assign(num_servers, all);
  return config;
}

std::size_t ReplicatedStore::stored_bytes(NodeId server) const {
  CEC_CHECK(server < nodes_.size());
  return nodes_[server]->stored_bytes();
}

}  // namespace causalec::baselines
