#include "workloads.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <thread>
#include <unordered_map>

#include "consistency/causal_checker.h"
#include "erasure/codes.h"
#include "frontdoor/router.h"
#include "frontdoor/router_client.h"
#include "net/cluster_config.h"
#include "net/net_client.h"
#include "runtime/threaded_cluster.h"
#include "workload/driver.h"

namespace perfbench {

using namespace std::chrono_literals;
using causalec::Tag;
using causalec::erasure::Value;
namespace consistency = causalec::consistency;

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec inproc;
    inproc.name = "inproc-mixed";
    inproc.system = SystemKind::kInproc;
    inproc.offered_ops_per_s = 40000;
    inproc.write_fraction = 0.5;
    inproc.value_bytes = 4096;
    inproc.servers = 6;
    inproc.objects = 4;
    inproc.six_dc_code = true;
    inproc.why =
        "ThreadedCluster on the six-DC cross-object code: automaton, codec "
        "and arena pools without socket or disk cost";
    v.push_back(inproc);

    WorkloadSpec net;
    net.name = "net-mixed";
    net.system = SystemKind::kDaemons;
    net.offered_ops_per_s = 10000;
    net.write_fraction = 0.5;
    net.value_bytes = 4096;
    net.servers = 5;
    net.objects = 3;
    net.why =
        "five causalec_server daemons, RS(5,3), no data dir: adds sockets, "
        "framing and peer fan-out to the in-process path";
    v.push_back(net);

    WorkloadSpec durable = net;
    durable.name = "net-durable";
    durable.durable = true;
    durable.offered_ops_per_s = 8;
    durable.write_fraction = 0.9;
    durable.why =
        "the same daemons with --data-dir at a 100 ms snapshot cadence, 90% "
        "writes below the cliff: WAL and snapshots on the write path";
    v.push_back(durable);

    WorkloadSpec router = net;
    router.name = "router-zipf";
    router.system = SystemKind::kRouter;
    router.offered_ops_per_s = 10000;
    router.write_fraction = 0.1;
    router.value_bytes = 1024;
    router.zipf_theta = 0.99;
    router.why =
        "recorded sessions through an in-process frontdoor Router, Zipf(0.99) "
        "keys, 10% writes: edge-cache hits against moving session frontiers";
    v.push_back(router);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

causalec::erasure::CodePtr make_code(const WorkloadSpec& spec) {
  if (spec.six_dc_code) {
    return causalec::erasure::make_six_dc_cross_object(spec.value_bytes);
  }
  return causalec::erasure::make_systematic_rs(spec.servers, spec.objects,
                                               spec.value_bytes);
}

// ---------------------------------------------------------------------------
// Schedule and values
// ---------------------------------------------------------------------------

namespace {

double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::uint64_t fnv(const std::uint8_t* p, std::size_t n) {
  return consistency::hash_value_bytes({p, n});
}

/// Logical clock for OpRecord::invoked_at / responded_at: a total order of
/// invocations and responses across generator threads.
std::atomic<causalec::SimTime> g_tick{0};
causalec::SimTime tick() { return g_tick.fetch_add(1) + 1; }

}  // namespace

Phase make_phase(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                 double ops_per_s, bool paced) {
  Phase phase;
  phase.seconds = seconds;
  phase.paced = paced;
  phase.per_thread.resize(kThreads);
  const double per_thread_rate = ops_per_s / kThreads;
  // A closed phase cycles through its ops and ignores due times.
  const std::size_t count =
      paced ? static_cast<std::size_t>(seconds * per_thread_rate)
            : std::size_t{1} << 14;
  const double spacing_ns = paced ? 1e9 / per_thread_rate : 0;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<NodeId> order(spec.servers);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<NodeId>(i);
  std::shuffle(order.begin(), order.end(), rng);
  if (spec.system != SystemKind::kInproc) {
    // Epoch rotation: in epoch e thread t uses order[(e + t) % n], so over
    // the n epochs of a phase every server sits out n - kThreads of them,
    // whatever the seed.
    const std::size_t n = spec.servers;
    phase.epoch_server.resize(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      for (std::size_t e = 0; e < n; ++e) {
        phase.epoch_server[t].push_back(
            order[(e + static_cast<std::size_t>(t)) % n]);
      }
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    causalec::workload::KeyPicker keys(spec.objects, spec.zipf_theta,
                                       rng() | 1);
    std::vector<Op>& ops = phase.per_thread[t];
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Op op;
      // Threads are staggered by a quarter spacing so offered load is even.
      op.due_ns = static_cast<std::int64_t>(
          (static_cast<double>(i) + static_cast<double>(t) / kThreads) *
          spacing_ns);
      op.object = keys.next();
      op.write = unit(rng) < spec.write_fraction;
      op.server = static_cast<NodeId>(rng() % spec.servers);
      ops.push_back(op);
    }
  }
  return phase;
}

ValueFactory::ValueFactory(std::size_t value_bytes, std::uint64_t seed)
    : value_bytes_(value_bytes) {
  std::mt19937_64 rng(seed ^ 0xB0D1E5ull);
  bodies_.resize(64);
  for (auto& body : bodies_) {
    body.resize(value_bytes);
    for (auto& b : body) b = static_cast<std::uint8_t>(rng());
  }
}

Value ValueFactory::make(ClientId client, std::uint64_t seq) const {
  std::vector<std::uint8_t> bytes = bodies_[(client * 31 + seq) % bodies_.size()];
  std::memcpy(bytes.data(), &client, 8);
  std::memcpy(bytes.data() + 8, &seq, 8);
  return Value(std::move(bytes));
}

std::uint64_t ValueFactory::hash(const Value& value) const {
  if (value.size() != value_bytes_) return fnv(value.data(), value.size()) ^ 1;
  ClientId client = 0;
  std::uint64_t seq = 0;
  std::memcpy(&client, value.data(), 8);
  std::memcpy(&seq, value.data() + 8, 8);
  const auto& body = bodies_[(client * 31 + seq) % bodies_.size()];
  if (std::memcmp(value.data() + 16, body.data() + 16, value_bytes_ - 16) != 0) {
    return fnv(value.data(), value.size()) ^ 1;
  }
  return fnv(value.data(), 16);
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

namespace {

/// A fresh client id per session: every (re)connection is a new session.
std::atomic<ClientId> g_next_client{1000};
ClientId new_client_id() { return g_next_client.fetch_add(1); }

void start_record(OpRecord& rec, ClientId client, std::uint64_t seq,
                  const Op& op, bool write) {
  rec.client = client;
  rec.session_seq = seq;
  rec.is_write = write;
  rec.object = op.object;
  rec.server = op.server;
  rec.invoked_at = tick();
}

class InprocSession final : public Session {
 public:
  InprocSession(causalec::runtime::ThreadedCluster* cluster,
                const ValueFactory* values)
      : cluster_(cluster), values_(values), id_(new_client_id()) {}

  bool write(const Op& op, OpRecord& rec) override {
    start_record(rec, id_, seq_, op, true);
    Value value = values_->make(id_, seq_++);
    rec.value_hash = values_->hash(value);
    rec.tag = cluster_->write(op.server, id_, op.object, std::move(value));
    rec.responded_at = tick();
    return true;
  }

  bool read(const Op& op, OpRecord& rec, bool& cached) override {
    cached = false;
    start_record(rec, id_, seq_++, op, false);
    auto [value, tag] = cluster_->read(op.server, id_, op.object);
    rec.tag = std::move(tag);
    rec.value_hash = values_->hash(value);
    rec.responded_at = tick();
    return true;
  }

 private:
  causalec::runtime::ThreadedCluster* cluster_;
  const ValueFactory* values_;
  ClientId id_;
  std::uint64_t seq_ = 0;
};

class NetSession final : public Session {
 public:
  NetSession(const DaemonCluster* daemons, const ValueFactory* values)
      : daemons_(daemons), values_(values) {}

  bool write(const Op& op, OpRecord& rec) override {
    if (!ensure(op.server)) return false;
    start_record(rec, client_->client(), seq_, op, true);
    Value value = values_->make(client_->client(), seq_);
    rec.value_hash = values_->hash(value);
    const auto resp = client_->write(seq_++, op.object, std::move(value));
    if (!resp.has_value()) return false;
    rec.tag = resp->tag;
    rec.timestamp = resp->vc;
    rec.responded_at = tick();
    return true;
  }

  bool read(const Op& op, OpRecord& rec, bool& cached) override {
    cached = false;
    if (!ensure(op.server)) return false;
    start_record(rec, client_->client(), seq_, op, false);
    const auto resp = client_->read(seq_++, op.object);
    if (!resp.has_value()) return false;
    rec.tag = resp->tag;
    rec.timestamp = resp->vc;
    rec.value_hash = values_->hash(resp->value);
    rec.responded_at = tick();
    return true;
  }

 private:
  /// One connection at a time: a new server or a broken connection opens a
  /// fresh session under a new client id.
  bool ensure(NodeId server) {
    if (client_ != nullptr && client_->connected() && server == server_) {
      return true;
    }
    client_ = std::make_unique<causalec::net::NetClient>(
        new_client_id());
    server_ = server;
    seq_ = 0;
    if (!client_->connect(daemons_->endpoints()[server], 2000)) return false;
    client_->set_io_timeout_ms(10'000);
    return true;
  }

  const DaemonCluster* daemons_;
  const ValueFactory* values_;
  std::unique_ptr<causalec::net::NetClient> client_;
  NodeId server_ = 0;
  std::uint64_t seq_ = 0;
};

class RouterSession final : public Session {
 public:
  RouterSession(std::string endpoint, const ValueFactory* values,
                const std::vector<NodeId>* owners)
      : endpoint_(std::move(endpoint)), values_(values), owners_(owners) {}

  bool write(const Op& op, OpRecord& rec) override {
    if (!ensure()) return false;
    start_record(rec, client_->client(), seq_, op, true);
    rec.server = (*owners_)[op.object];
    Value value = values_->make(client_->client(), seq_);
    rec.value_hash = values_->hash(value);
    const auto resp = client_->write(seq_++, op.object, std::move(value));
    if (!resp.has_value()) return false;
    rec.tag = resp->tag;
    rec.timestamp = resp->vc;
    rec.responded_at = tick();
    return true;
  }

  bool read(const Op& op, OpRecord& rec, bool& cached) override {
    if (!ensure()) return false;
    start_record(rec, client_->client(), seq_, op, false);
    const auto resp = client_->read(seq_++, op.object);
    if (!resp.has_value()) return false;
    cached = resp->cached;
    rec.tag = resp->tag;
    rec.timestamp = resp->vc;
    rec.value_hash = values_->hash(resp->value);
    rec.responded_at = tick();
    return true;
  }

 private:
  bool ensure() {
    if (client_ != nullptr && client_->connected()) return true;
    client_ = std::make_unique<causalec::frontdoor::RouterClient>(
        new_client_id());
    seq_ = 0;
    if (!client_->connect(endpoint_, 2000)) return false;
    client_->set_io_timeout_ms(10'000);
    return true;
  }

  std::string endpoint_;
  const ValueFactory* values_;
  const std::vector<NodeId>* owners_;
  std::unique_ptr<causalec::frontdoor::RouterClient> client_;
  std::uint64_t seq_ = 0;
};

// ---------------------------------------------------------------------------
// Systems
// ---------------------------------------------------------------------------

class InprocSystem final : public System {
 public:
  InprocSystem(const WorkloadSpec& spec, const ValueFactory* values,
               causalec::obs::MetricsRegistry* metrics)
      : values_(values) {
    causalec::runtime::ThreadedClusterConfig config;
    config.gc_period = 10ms;
    config.serialize_messages = true;
    config.obs.metrics = metrics;
    cluster_ = std::make_unique<causalec::runtime::ThreadedCluster>(
        make_code(spec), config);
  }

  std::unique_ptr<Session> session() override {
    return std::make_unique<InprocSession>(cluster_.get(), values_);
  }
  std::size_t servers() const override { return cluster_->num_servers(); }
  std::optional<double> history_entries() override {
    double total = 0;
    for (NodeId s = 0; s < cluster_->num_servers(); ++s) {
      total += static_cast<double>(cluster_->storage(s).history_entries);
    }
    return total;
  }
  bool converge() override { return cluster_->await_convergence(10s); }
  std::optional<std::uint64_t> error_events() override {
    return cluster_->total_error_events();
  }
  bool final_read(NodeId s, ObjectId object, OpRecord& rec) override {
    auto [value, tag] = cluster_->read(s, 900 + s, object);
    rec.is_write = false;
    rec.client = 900 + s;
    rec.object = object;
    rec.server = s;
    rec.tag = std::move(tag);
    rec.value_hash = values_->hash(value);
    return true;
  }
  bool in_process() const override { return true; }

 private:
  const ValueFactory* values_;
  std::unique_ptr<causalec::runtime::ThreadedCluster> cluster_;
};

/// A system whose servers are daemons (owned or borrowed).
class DaemonSystem : public System {
 public:
  DaemonSystem(std::unique_ptr<DaemonCluster> owned, DaemonCluster* daemons,
               const ValueFactory* values)
      : owned_(std::move(owned)), daemons_(daemons), values_(values) {}

  std::unique_ptr<Session> session() override {
    return std::make_unique<NetSession>(daemons_, values_);
  }
  std::size_t servers() const override { return daemons_->size(); }
  std::optional<double> history_entries() override {
    if (samplers_.empty()) {
      for (std::size_t i = 0; i < daemons_->size(); ++i) {
        samplers_.push_back(std::make_unique<causalec::net::NetClient>(0));
      }
    }
    double total = 0;
    for (std::size_t i = 0; i < daemons_->size(); ++i) {
      auto& c = samplers_[i];
      if (!c->connected()) {
        c = std::make_unique<causalec::net::NetClient>(0);
        if (!c->connect(daemons_->endpoints()[i], 1000)) return std::nullopt;
        c->set_io_timeout_ms(5000);
      }
      const auto s = c->stats();
      if (!s.has_value()) return std::nullopt;
      total += static_cast<double>(s->history_entries);
    }
    return total;
  }
  bool converge() override { return daemons_->await_convergence(20s); }
  std::optional<std::uint64_t> error_events() override {
    return daemons_->error_events();
  }
  bool final_read(NodeId s, ObjectId object, OpRecord& rec) override {
    causalec::net::NetClient client(900 + s);
    if (!client.connect(daemons_->endpoints()[s], 2000)) return false;
    client.set_io_timeout_ms(10'000);
    const auto resp = client.read(object, object);
    if (!resp.has_value()) return false;
    rec.is_write = false;
    rec.client = 900 + s;
    rec.object = object;
    rec.server = s;
    rec.tag = resp->tag;
    rec.timestamp = resp->vc;
    rec.value_hash = values_->hash(resp->value);
    return true;
  }
  double child_cpu_s() const override { return daemons_->cpu_s(); }
  double child_rss_mib() const override { return daemons_->rss_mib(); }
  bool in_process() const override { return false; }
  DaemonCluster* daemons() override { return daemons_; }

 protected:
  std::unique_ptr<DaemonCluster> owned_;
  DaemonCluster* daemons_;
  const ValueFactory* values_;
  std::vector<std::unique_ptr<causalec::net::NetClient>> samplers_;
};

class RouterSystem final : public DaemonSystem {
 public:
  RouterSystem(std::unique_ptr<DaemonCluster> owned, DaemonCluster* daemons,
               const ValueFactory* values, std::size_t objects,
               std::unique_ptr<causalec::frontdoor::Router> router)
      : DaemonSystem(std::move(owned), daemons, values),
        router_(std::move(router)),
        endpoint_("127.0.0.1:" + std::to_string(router_->listen_port())) {
    // The node a routed write lands on while every backend link is up: the
    // first node of the ring owner's group.
    for (ObjectId g = 0; g < objects; ++g) {
      owners_.push_back(
          router_->routing_groups()[router_->ring().owner(g)].front());
    }
  }

  ~RouterSystem() override { router_->stop(); }

  std::unique_ptr<Session> session() override {
    return std::make_unique<RouterSession>(endpoint_, values_, &owners_);
  }
  bool in_process() const override { return true; }
  std::optional<causalec::net::RouterStatsResp> router_stats() override {
    return router_->stats();
  }

 private:
  std::unique_ptr<causalec::frontdoor::Router> router_;
  std::string endpoint_;
  std::vector<NodeId> owners_;
};

/// One recorded write per object through `system`'s own session type.
bool seed_objects(System& system, const WorkloadSpec& spec,
                  std::vector<OpRecord>* seed_ops) {
  auto session = system.session();
  for (ObjectId g = 0; g < spec.objects; ++g) {
    Op op;
    op.object = g;
    op.write = true;
    op.server = static_cast<NodeId>(g % system.servers());
    OpRecord rec;
    if (!session->write(op, rec)) {
      std::fprintf(stderr, "perfbench: seed write of object %u failed\n", g);
      return false;
    }
    if (seed_ops != nullptr) seed_ops->push_back(std::move(rec));
  }
  if (!system.converge()) {
    std::fprintf(stderr, "perfbench: no convergence after seeding\n");
    return false;
  }
  return true;
}

std::unique_ptr<causalec::frontdoor::Router> start_router(
    const DaemonCluster& daemons) {
  std::string error;
  auto cluster = causalec::net::load_cluster_config(daemons.cluster_file(),
                                                    &error);
  if (!cluster.has_value()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return nullptr;
  }
  causalec::frontdoor::RouterConfig config;
  config.cluster = *cluster;
  config.shards = 2;
  auto router = std::make_unique<causalec::frontdoor::Router>(config);
  router->start();
  if (!router->await_backends(10s)) {
    std::fprintf(stderr, "perfbench: router backends never came up\n");
    return nullptr;
  }
  return router;
}

}  // namespace

std::unique_ptr<System> make_router_system(DaemonCluster* daemons,
                                           const WorkloadSpec& spec,
                                           const ValueFactory& values,
                                           std::vector<OpRecord>* seed_ops) {
  auto router = start_router(*daemons);
  if (router == nullptr) return nullptr;
  auto system = std::make_unique<RouterSystem>(nullptr, daemons, &values,
                                               spec.objects, std::move(router));
  if (!seed_objects(*system, spec, seed_ops)) return nullptr;
  return system;
}

std::unique_ptr<System> make_daemon_system(DaemonCluster* daemons,
                                           const ValueFactory& values) {
  return std::make_unique<DaemonSystem>(nullptr, daemons, &values);
}

std::unique_ptr<System> make_system(const WorkloadSpec& spec,
                                    const ValueFactory& values,
                                    const std::string& work_dir,
                                    causalec::obs::MetricsRegistry* metrics,
                                    std::vector<OpRecord>* seed_ops) {
  std::unique_ptr<System> system;
  if (spec.system == SystemKind::kInproc) {
    system = std::make_unique<InprocSystem>(spec, &values, metrics);
  } else {
    auto daemons = std::make_unique<DaemonCluster>(PERFBENCH_SERVER_BIN,
                                                   work_dir);
    if (!daemons->start(spec.servers, spec.objects, spec.value_bytes,
                        spec.durable) ||
        !daemons->await_ready(15s)) {
      std::fprintf(stderr, "perfbench: daemons failed to start (logs in %s)\n",
                   work_dir.c_str());
      return nullptr;
    }
    DaemonCluster* raw = daemons.get();
    if (spec.system == SystemKind::kRouter) {
      auto router = start_router(*raw);
      if (router == nullptr) return nullptr;
      system = std::make_unique<RouterSystem>(std::move(daemons), raw, &values,
                                              spec.objects, std::move(router));
    } else {
      system = std::make_unique<DaemonSystem>(std::move(daemons), raw, &values);
    }
  }
  if (!seed_objects(*system, spec, seed_ops)) return nullptr;
  return system;
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

PassResult run_pass(System& system, const Phase& phase, bool sample,
                    causalec::obs::MetricsRegistry* metrics) {
  struct ThreadOut {
    std::vector<double> write_us, read_us, hit_us, origin_us, lateness_us;
    std::vector<double> write_at, read_at;
    std::vector<OpRecord> ops;
    std::vector<std::uint64_t> per_server;
    std::uint64_t attempted = 0, failed = 0, writes = 0;
    double cpu_s = 0;
  };
  std::vector<ThreadOut> outs(kThreads);
  std::vector<std::unique_ptr<Session>> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.push_back(system.session());

  const double cpu0 = process_cpu_s();
  const double child_cpu0 = system.child_cpu_s();
  const double main_cpu0 = thread_cpu_s();
  const auto start = Clock::now() + 20ms;
  const auto nominal_end =
      start + std::chrono::nanoseconds(static_cast<std::int64_t>(phase.seconds * 1e9));
  // A paced phase that falls far behind stops issuing here; the ops it
  // never issued count as attempted and failed.
  const auto hard_end = nominal_end + std::chrono::nanoseconds(
      static_cast<std::int64_t>(2 * phase.seconds * 1e9)) + 2s;
  std::atomic<int> running{kThreads};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      ThreadOut& out = outs[t];
      out.per_server.assign(system.servers(), 0);
      Session& session = *sessions[t];
      const std::vector<Op>& ops = phase.per_thread[t];
      std::this_thread::sleep_until(start);
      const double tcpu0 = thread_cpu_s();
      for (std::size_t i = 0;; ++i) {
        if (phase.paced && i >= ops.size()) break;
        Op op = ops[i % ops.size()];
        Clock::time_point due;
        if (phase.paced) {
          due = start + std::chrono::nanoseconds(op.due_ns);
          if (Clock::now() > hard_end) {
            out.attempted += ops.size() - i;
            out.failed += ops.size() - i;
            break;
          }
          std::this_thread::sleep_until(due);
        }
        const auto issued = Clock::now();
        if (!phase.paced) {
          if (issued >= nominal_end) break;
          due = issued;
        }
        if (!phase.epoch_server.empty()) {
          const auto& rotation = phase.epoch_server[t];
          const double at = std::chrono::duration<double>(due - start).count();
          const auto epoch = static_cast<std::size_t>(
              std::max(0.0, at / phase.seconds) *
              static_cast<double>(rotation.size()));
          op.server = rotation[std::min(epoch, rotation.size() - 1)];
        }
        OpRecord rec;
        bool cached = false;
        const bool ok = op.write ? session.write(op, rec)
                                 : session.read(op, rec, cached);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - due).count();
        ++out.attempted;
        if (!ok) {
          ++out.failed;
          continue;
        }
        out.lateness_us.push_back(
            std::chrono::duration<double, std::micro>(issued - due).count());
        const double at = std::chrono::duration<double>(due - start).count();
        if (op.write) {
          ++out.writes;
          out.write_us.push_back(us);
          out.write_at.push_back(at);
        } else {
          out.read_us.push_back(us);
          out.read_at.push_back(at);
          (cached ? out.hit_us : out.origin_us).push_back(us);
        }
        ++out.per_server[op.server];
        out.ops.push_back(std::move(rec));
      }
      out.cpu_s = thread_cpu_s() - tcpu0;
      running.fetch_sub(1);
    });
  }

  PassResult result;
  std::vector<double> rss_samples;
  auto next_sample = start + 50ms;
  while (running.load() > 0) {
    std::this_thread::sleep_for(5ms);
    if (!sample || Clock::now() < next_sample || Clock::now() > nominal_end) {
      continue;
    }
    next_sample += 100ms;
    rss_samples.push_back(system.child_rss_mib() +
                          (system.in_process() ? pid_rss_mib(::getpid()) : 0.0));
    if (auto entries = system.history_entries()) {
      result.history_samples.push_back(*entries /
                                       static_cast<double>(system.servers()));
    }
    if (metrics != nullptr) {
      for (const auto& [name, value] : metrics->snapshot().gauges) {
        if (name.rfind("runtime.mailbox_depth.", 0) == 0) {
          result.mailbox_depth_max = std::max(result.mailbox_depth_max, value);
        }
      }
    }
  }
  for (auto& th : threads) th.join();
  const auto end = Clock::now();
  const double main_cpu = thread_cpu_s() - main_cpu0;

  result.seconds = phase.paced
                       ? phase.seconds
                       : std::chrono::duration<double>(end - start).count();
  result.ops_per_server.assign(system.servers(), 0);
  double gen_cpu = 0;
  for (ThreadOut& out : outs) {
    auto append = [](std::vector<double>& dst, const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(result.write_us, out.write_us);
    append(result.read_us, out.read_us);
    append(result.write_at, out.write_at);
    append(result.read_at, out.read_at);
    append(result.hit_us, out.hit_us);
    append(result.origin_us, out.origin_us);
    append(result.lateness_us, out.lateness_us);
    for (auto& op : out.ops) result.ops.push_back(std::move(op));
    for (std::size_t s = 0; s < out.per_server.size(); ++s) {
      result.ops_per_server[s] += out.per_server[s];
    }
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.writes += out.writes;
    gen_cpu += out.cpu_s;
  }
  // CPU of the system under test: daemon children plus this process minus
  // the generator and sampling threads.
  const double own = process_cpu_s() - cpu0 - gen_cpu - main_cpu;
  result.cpu_s = std::max(0.0, own) + (system.child_cpu_s() - child_cpu0);
  result.rss_mib = median(rss_samples);
  return result;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

namespace {

/// Definition 5 causal consistency with indexed lookups. It checks what
/// consistency::check_causal_consistency checks (unique write tags, tag
/// order extends visibility among writes, every read returns the
/// largest-tag write in its causal past, value integrity), but in
/// O(ops * servers * log ops) instead of O(writes^2): a write is an event
/// at its serving node `o`, so ts(w) <= T exactly when ts(w)[o] <= T[o].
/// That clock property is spot-checked against VectorClock::leq first; if
/// it fails, the exhaustive repository checker runs instead.
consistency::CheckResult check_causal_indexed(
    const std::vector<OpRecord>& ops, std::size_t servers) {
  consistency::CheckResult result;
  std::vector<const OpRecord*> writes;
  for (const auto& op : ops) {
    if (op.is_write) writes.push_back(&op);
  }
  auto origin_tick = [](const OpRecord& w) { return w.timestamp[w.server]; };

  // The clock property on a deterministic sample of (write, op) pairs.
  for (std::size_t i = 0; i < ops.size() && !writes.empty(); i += 7) {
    const OpRecord& w = *writes[(i * 131) % writes.size()];
    const OpRecord& op = ops[i];
    if (w.timestamp.leq(op.timestamp) !=
        (origin_tick(w) <= op.timestamp[w.server])) {
      // The serving node of some write is not the one recorded (e.g. a
      // rerouted router write): fall back to the exhaustive checker.
      consistency::History history;
      for (const auto& o : ops) history.record(o);
      return consistency::check_causal_consistency(history);
    }
  }

  std::map<Tag, const OpRecord*> by_tag;
  for (const OpRecord* w : writes) {
    if (!by_tag.try_emplace(w->tag, w).second) {
      result.fail("duplicate write tag");
    }
  }

  // Per (server) and per (object, server): writes sorted by their origin
  // tick with the running maximum tag.
  struct Lane {
    std::vector<std::uint64_t> ticks;
    std::vector<Tag> prefix_max;
  };
  auto build = [&](auto key_of) {
    std::map<std::uint64_t, std::vector<const OpRecord*>> groups;
    for (const OpRecord* w : writes) groups[key_of(*w)].push_back(w);
    std::unordered_map<std::uint64_t, Lane> lanes;
    for (auto& [key, list] : groups) {
      std::sort(list.begin(), list.end(), [&](auto* a, auto* b) {
        return origin_tick(*a) < origin_tick(*b);
      });
      Lane& lane = lanes[key];
      for (const OpRecord* w : list) {
        if (!lane.ticks.empty() && lane.ticks.back() == origin_tick(*w)) {
          result.fail("two writes share one server tick");
        }
        lane.ticks.push_back(origin_tick(*w));
        lane.prefix_max.push_back(lane.prefix_max.empty() ||
                                          lane.prefix_max.back() < w->tag
                                      ? w->tag
                                      : lane.prefix_max.back());
      }
    }
    return lanes;
  };
  const auto by_server = build([](const OpRecord& w) { return w.server; });
  const auto by_object = build([&](const OpRecord& w) {
    return static_cast<std::uint64_t>(w.object) * servers + w.server;
  });
  // Largest tag among a lane's writes with tick <= limit (strictly below
  // when `strict`); nullptr when none.
  auto lane_max = [](const auto& lanes, std::uint64_t key, std::uint64_t limit,
                     bool strict) -> const Tag* {
    const auto it = lanes.find(key);
    if (it == lanes.end()) return nullptr;
    const auto& ticks = it->second.ticks;
    const auto pos = strict ? std::lower_bound(ticks.begin(), ticks.end(), limit)
                            : std::upper_bound(ticks.begin(), ticks.end(), limit);
    if (pos == ticks.begin()) return nullptr;
    return &it->second.prefix_max[(pos - ticks.begin()) - 1];
  };

  for (const OpRecord* w : writes) {
    for (std::size_t j = 0; j < servers; ++j) {
      const Tag* seen = lane_max(by_server, j, w->timestamp[j], j == w->server);
      if (seen != nullptr && !(*seen < w->tag)) {
        result.fail("arbitration does not extend visibility");
        break;
      }
    }
  }
  for (const auto& op : ops) {
    if (op.is_write) continue;
    const Tag* best = nullptr;
    for (std::size_t j = 0; j < servers; ++j) {
      const Tag* t = lane_max(by_object, op.object * servers + j,
                              op.timestamp[j], false);
      if (t != nullptr && (best == nullptr || *best < *t)) best = t;
    }
    if (op.tag.is_zero()) {
      if (best != nullptr) result.fail("read returned the initial value late");
      continue;
    }
    const auto it = by_tag.find(op.tag);
    if (it == by_tag.end()) {
      result.fail("read returned a tag no write produced");
      continue;
    }
    if (it->second->object != op.object) {
      result.fail("read returned a write to another object");
    }
    if (it->second->value_hash != op.value_hash) {
      result.fail("read returned bytes that differ from its write");
    }
    if (best == nullptr || !(op.tag == *best)) {
      result.fail("read is not last-writer-wins");
    }
  }
  return result;
}

/// In-process ops carry no timestamps: every read must return a tag some
/// write produced, on the same object, with that write's bytes.
consistency::CheckResult check_integrity(const std::vector<OpRecord>& ops) {
  consistency::CheckResult result;
  std::map<Tag, const OpRecord*> by_tag;
  for (const auto& op : ops) {
    if (op.is_write && !by_tag.try_emplace(op.tag, &op).second) {
      result.fail("duplicate write tag");
    }
  }
  for (const auto& op : ops) {
    if (op.is_write || op.tag.is_zero()) continue;
    const auto it = by_tag.find(op.tag);
    if (it == by_tag.end() || it->second->object != op.object ||
        it->second->value_hash != op.value_hash) {
      result.fail("read returned a value no write to its object produced");
    }
  }
  return result;
}

}  // namespace

bool check_run(System& system, const WorkloadSpec& spec,
               const std::vector<OpRecord>& ops) {
  bool ok = true;
  auto report = [&ok](const char* what, const consistency::CheckResult& r) {
    if (r.violations.empty()) return;
    ok = false;
    std::fprintf(stderr, "perfbench: %s: %zu violation(s), first: %s\n", what,
                 r.violations.size(), r.violations.front().c_str());
  };
  if (!system.converge()) {
    std::fprintf(stderr, "perfbench: no convergence after the run\n");
    ok = false;
  }
  const auto errors = system.error_events();
  if (!errors.has_value() || *errors != 0) {
    std::fprintf(stderr, "perfbench: error_events %s\n",
                 errors.has_value() ? std::to_string(*errors).c_str()
                                    : "unreadable");
    ok = false;
  }
  std::vector<OpRecord> finals;
  for (NodeId s = 0; s < system.servers(); ++s) {
    for (ObjectId g = 0; g < spec.objects; ++g) {
      OpRecord rec;
      if (!system.final_read(s, g, rec)) {
        std::fprintf(stderr, "perfbench: final read at server %u failed\n", s);
        return false;
      }
      finals.push_back(std::move(rec));
    }
  }
  consistency::History history;
  for (const auto& op : ops) history.record(op);
  report("convergence", consistency::check_convergence(history, finals));
  if (spec.system == SystemKind::kInproc) {
    report("integrity", check_integrity(ops));
    return ok;
  }
  report("session guarantees", consistency::check_session_guarantees(history));
  report("causal consistency", check_causal_indexed(ops, system.servers()));
  return ok;
}

}  // namespace perfbench
