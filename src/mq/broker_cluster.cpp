#include "mq/broker_cluster.h"

#include <algorithm>

#include "util/bytes.h"

namespace metro::mq {

namespace {

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// Cold error construction for the METRO_NOALLOC produce/fetch bodies: the
// annotated functions call these helpers so string building stays off the
// lexically-scanned hot path (and, at runtime, happens only when the
// produce already failed).
std::string Where(std::string_view topic, int partition) {
  return std::string(topic) + "/" + std::to_string(partition);
}

Status UnknownTopicError(const std::string& topic) {
  return NotFoundError("topic " + topic);
}

Status PartitionRangeError() {
  return InvalidArgumentError("partition out of range");
}

Status EmptyBatchError() {
  return InvalidArgumentError("batched produce requires a non-empty batch");
}

Status NoLeaderError(std::string_view topic, int partition) {
  return UnavailableError("partition " + Where(topic, partition) +
                          " has no leader");
}

Status QuorumError(std::string_view topic, int partition, int isr,
                   int quorum) {
  return UnavailableError("partition " + Where(topic, partition) + " ISR " +
                          std::to_string(isr) + " below quorum " +
                          std::to_string(quorum));
}

Status TooOldError(const ProduceBatchRequest& request) {
  return FailedPreconditionError(
      "producer " + std::to_string(request.producer_id) + " sequence " +
      std::to_string(request.first_sequence) + " on " +
      Where(request.topic, request.partition) +
      " below the tracked idempotence window");
}

Status OverlapError(const ProduceBatchRequest& request, std::int64_t count) {
  return FailedPreconditionError(
      "producer " + std::to_string(request.producer_id) + " sequence range [" +
      std::to_string(request.first_sequence) + ", " +
      std::to_string(request.first_sequence + count) + ") on " +
      Where(request.topic, request.partition) +
      " partially appended — not a whole-batch retry");
}

Status ResubmitError(const ProduceBatchRequest& request) {
  return FailedPreconditionError(
      "non-idempotent batch already committed to " +
      Where(request.topic, request.partition) +
      " resubmitted; build a new batch (or use an idempotent producer)");
}

Status BacklogError(const ProduceBatchRequest& request, std::int64_t bound) {
  return ResourceExhaustedError("partition " +
                                Where(request.topic, request.partition) +
                                " backlog at bound " + std::to_string(bound));
}

Status DivergenceError(const ProduceBatchRequest& request,
                       const Status& cause) {
  return InternalError("ISR divergence on " +
                       Where(request.topic, request.partition) + ": " +
                       cause.message());
}

// A single record as a one-record batch request. Built before the cluster
// lock is taken: the batch does not depend on the partition choice.
ProduceBatchRequest OneRecordRequest(const std::string& topic,
                                     std::string_view key,
                                     std::string_view value,
                                     const Headers& headers) {
  RecordBatchBuilder builder;
  builder.Add(key, value, headers);
  ProduceBatchRequest request;
  request.topic = topic;
  request.batch = builder.Build();
  return request;
}

}  // namespace

std::string_view ClusterEventKindName(ClusterEvent::Kind kind) {
  switch (kind) {
    case ClusterEvent::Kind::kLeaderElected:
      return "leader_elected";
    case ClusterEvent::Kind::kFailover:
      return "failover";
    case ClusterEvent::Kind::kQuorumLost:
      return "quorum_lost";
    case ClusterEvent::Kind::kIsrShrink:
      return "isr_shrink";
    case ClusterEvent::Kind::kIsrExpand:
      return "isr_expand";
    case ClusterEvent::Kind::kNodeKilled:
      return "node_killed";
    case ClusterEvent::Kind::kNodeRevived:
      return "node_revived";
  }
  return "unknown";
}

BrokerCluster::BrokerCluster(Clock& clock, BrokerClusterConfig config)
    : clock_(&clock), config_(config) {
  config_.nodes = std::max(1, config_.nodes);
  config_.replication_factor =
      std::clamp(config_.replication_factor, 1, config_.nodes);
  c_records_produced_ = &metrics_.GetCounter("mq.records_produced");
  c_batches_produced_ = &metrics_.GetCounter("mq.batches_produced");
  c_bytes_produced_ = &metrics_.GetCounter("mq.bytes_produced");
  c_replica_bytes_shared_ = &metrics_.GetCounter("mq.replica_bytes_shared");
  c_duplicates_suppressed_ = &metrics_.GetCounter("mq.duplicates_suppressed");
  c_sequence_too_old_ = &metrics_.GetCounter("mq.sequence_too_old");
  c_sequence_overlap_ = &metrics_.GetCounter("mq.sequence_overlap");
  c_backpressure_ = &metrics_.GetCounter("mq.backpressure");
  c_no_leader_ = &metrics_.GetCounter("mq.no_leader");
  c_quorum_failures_ = &metrics_.GetCounter("mq.quorum_failures");
  c_roundrobin_skips_ = &metrics_.GetCounter("mq.roundrobin_skips");
  c_failovers_ = &metrics_.GetCounter("mq.failovers");
  MutexLock lock(mu_);
  nodes_.reserve(std::size_t(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(std::make_unique<BrokerNode>(i));
  }
}

void BrokerCluster::SetEventHook(EventFn hook) {
  MutexLock lock(mu_);
  hook_ = std::move(hook);
}

void BrokerCluster::Emit(std::vector<ClusterEvent> events) {
  if (events.empty()) return;
  EventFn hook;
  {
    MutexLock lock(mu_);
    hook = hook_;
  }
  if (!hook) return;
  for (const ClusterEvent& event : events) hook(event);
}

Status BrokerCluster::CreateTopic(const std::string& topic, int partitions) {
  if (partitions < 1) return InvalidArgumentError("partitions must be >= 1");
  std::vector<ClusterEvent> events;
  MutexLock lock(mu_);
  const auto [it, inserted] = topics_.try_emplace(topic);
  if (!inserted) return AlreadyExistsError("topic " + topic);
  TopicMeta& t = it->second;
  t.partitions.resize(std::size_t(partitions));
  const std::uint64_t base = Fnv1a64(topic);
  for (int p = 0; p < partitions; ++p) {
    PartitionMeta& pm = t.partitions[std::size_t(p)];
    const TopicPartition tp{topic, p};
    for (int i = 0; i < config_.replication_factor; ++i) {
      const int node =
          int((base + std::uint64_t(p) + std::uint64_t(i)) %
              std::uint64_t(nodes_.size()));
      pm.replicas.push_back(node);
      nodes_[std::size_t(node)]->replica(tp);  // materialize the replica
      if (nodes_[std::size_t(node)]->up()) pm.isr.push_back(node);
    }
    if (!pm.isr.empty()) {
      pm.leader = pm.isr.front();
      ClusterEvent event;
      event.kind = ClusterEvent::Kind::kLeaderElected;
      event.topic = topic;
      event.partition = p;
      event.node = pm.leader;
      events.push_back(std::move(event));
    }
  }
  lock.Unlock();
  Emit(std::move(events));
  return Status::Ok();
}

bool BrokerCluster::HasTopic(const std::string& topic) const {
  MutexLock lock(mu_);
  return topics_.count(topic) > 0;
}

Result<int> BrokerCluster::NumPartitions(const std::string& topic) const {
  MutexLock lock(mu_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return NotFoundError("topic " + topic);
  return int(it->second.partitions.size());
}

Result<const BrokerCluster::PartitionMeta*> BrokerCluster::MetaLocked(
    const std::string& topic, int partition) const {
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return NotFoundError("topic " + topic);
  if (partition < 0 ||
      std::size_t(partition) >= it->second.partitions.size()) {
    return InvalidArgumentError("partition out of range");
  }
  return &it->second.partitions[std::size_t(partition)];
}

int BrokerCluster::PickPartitionLocked(TopicMeta& topic,
                                       std::string_view key) {
  const std::size_t n = topic.partitions.size();
  if (!key.empty()) return int(Fnv1a64(key) % n);
  // Keyless round-robin skips partitions that currently have no leader so a
  // single dead preferred leader cannot fail a fraction of keyless traffic.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = topic.round_robin++ % n;
    if (topic.partitions[idx].leader >= 0) return int(idx);
    c_roundrobin_skips_->Increment();
  }
  // Every partition is leaderless; let the produce path report kUnavailable.
  return int(topic.round_robin++ % n);
}

ProducerId BrokerCluster::CreateProducer() {
  MutexLock lock(mu_);
  return next_producer_++;
}

Result<ProduceBatchRequest> BrokerCluster::Prepare(ProducerId producer,
                                                   const std::string& topic,
                                                   std::string_view key,
                                                   std::string_view value,
                                                   const Headers& headers) {
  ProduceBatchRequest request = OneRecordRequest(topic, key, value, headers);
  MutexLock lock(mu_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return UnknownTopicError(topic);
  if (producer < 0 || producer >= next_producer_) {
    return InvalidArgumentError("unknown producer id " +
                                std::to_string(producer));
  }
  request.partition = PickPartitionLocked(it->second, key);
  if (producer > 0) {
    request.producer_id = producer;
    request.first_sequence =
        producer_seq_[producer][TopicPartition{topic, request.partition}]++;
  }
  return request;
}

Result<ProduceBatchRequest> BrokerCluster::PrepareBatch(
    ProducerId producer, const std::string& topic, int partition,
    RecordBatchBuilder& builder) {
  if (builder.empty()) return EmptyBatchError();
  MutexLock lock(mu_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return UnknownTopicError(topic);
  if (partition < 0 ||
      std::size_t(partition) >= it->second.partitions.size()) {
    return PartitionRangeError();
  }
  if (producer < 0 || producer >= next_producer_) {
    return InvalidArgumentError("unknown producer id " +
                                std::to_string(producer));
  }
  ProduceBatchRequest request;
  request.topic = topic;
  request.partition = partition;
  request.batch = builder.Build();
  if (producer > 0) {
    request.producer_id = producer;
    std::int64_t& next = producer_seq_[producer][TopicPartition{topic, partition}];
    request.first_sequence = next;
    next += std::int64_t(request.batch->size());
  }
  return request;
}

Result<ProduceAck> BrokerCluster::Produce(const ProduceBatchRequest& request) {
  MutexLock lock(mu_);
  return ProduceBatchLocked(request);
}

Result<ProduceAck> BrokerCluster::Produce(const std::string& topic,
                                          std::string_view key,
                                          std::string_view value,
                                          const Headers& headers) {
  ProduceBatchRequest request = OneRecordRequest(topic, key, value, headers);
  MutexLock lock(mu_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return UnknownTopicError(topic);
  request.partition = PickPartitionLocked(it->second, key);
  return ProduceBatchLocked(request);
}

Result<ProduceAck> BrokerCluster::ProduceTo(const std::string& topic,
                                            int partition,
                                            std::string_view key,
                                            std::string_view value,
                                            const Headers& headers) {
  ProduceBatchRequest request = OneRecordRequest(topic, key, value, headers);
  request.partition = partition;
  MutexLock lock(mu_);
  return ProduceBatchLocked(request);
}

METRO_NOALLOC Result<ProduceAck> BrokerCluster::ProduceBatchLocked(
    const ProduceBatchRequest& request) {
  const auto it = topics_.find(request.topic);
  if (it == topics_.end()) return UnknownTopicError(request.topic);
  TopicMeta& t = it->second;
  if (request.partition < 0 ||
      std::size_t(request.partition) >= t.partitions.size()) {
    return PartitionRangeError();
  }
  if (request.batch == nullptr || request.batch->empty()) {
    return EmptyBatchError();
  }
  PartitionMeta& pm = t.partitions[std::size_t(request.partition)];
  if (pm.leader < 0) {
    c_no_leader_->Increment();
    return NoLeaderError(request.topic, request.partition);
  }
  if (int(pm.isr.size()) < quorum()) {
    c_quorum_failures_->Increment();
    return QuorumError(request.topic, request.partition, int(pm.isr.size()),
                       quorum());
  }
  const TopicPartitionView tp{request.topic, request.partition};
  BrokerNode::Replica* lead = nodes_[std::size_t(pm.leader)]->FindMutable(tp);
  METRO_CHECK(lead != nullptr, "leader %d hosts no replica of %s/%d",
              pm.leader, request.topic.c_str(), request.partition);
  const std::int64_t count = std::int64_t(request.batch->size());
  const SequenceTable::Probe probe = lead->sequences.CheckRange(
      request.producer_id, request.first_sequence, count);
  if (probe.verdict == SequenceTable::Verdict::kDuplicate) {
    c_duplicates_suppressed_->Increment();
    ProduceAck ack;
    ack.partition = request.partition;
    ack.offset = probe.duplicate_offset;
    ack.count = count;
    ack.duplicate = true;
    return ack;
  }
  if (probe.verdict == SequenceTable::Verdict::kTooOld) {
    // The range fell below the broker's tracked window, so it cannot be
    // told apart from an already-appended one. Rejecting is the only safe
    // answer: appending risks a duplicate, a duplicate-ack risks silent
    // loss. Terminal for this prepared request — the producer must
    // re-prepare.
    c_sequence_too_old_->Increment();
    return TooOldError(request);
  }
  if (probe.verdict == SequenceTable::Verdict::kOverlap) {
    c_sequence_overlap_->Increment();
    return OverlapError(request, count);
  }
  if (request.producer_id <= 0 && request.batch->committed()) {
    // Without idempotence there is no dedup to absorb the resubmission, and
    // re-sealing a batch that live logs already share would mutate it under
    // them — refuse instead.
    return ResubmitError(request);
  }
  if (config_.max_partition_backlog > 0 &&
      lead->log.size() + count > config_.max_partition_backlog) {
    c_backpressure_->Increment();
    return BacklogError(request, config_.max_partition_backlog);
  }
  // Assign the batch its identity — offsets, broker timestamp, idempotence
  // range — and append to the leader. A rolled-back attempt re-seals on
  // retry; a committed one never reaches here (dedup or the guard above).
  request.batch->Seal(lead->log.end_offset(), clock_->Now(),
                      request.producer_id, request.first_sequence);
  const std::int64_t base = lead->log.AppendBatch(request.batch);
  // acks=quorum via synchronous replication: every ISR member appends before
  // the ack; quorum was pre-checked above, so the acked batch is on at
  // least `quorum()` replicas when the caller sees it. Replication shares
  // the leader's immutable batch — a refcount bump per member, not a
  // payload copy. A replication failure (defensive — ISR logs cannot
  // diverge under synchronous appends) rolls the append back everywhere so
  // an errored produce leaves no record: the producer may then safely
  // retry without duplicating.
  for (std::size_t i = 0; i < pm.isr.size(); ++i) {
    const int node = pm.isr[i];
    if (node == pm.leader) continue;
    BrokerNode::Replica* rep = nodes_[std::size_t(node)]->FindMutable(tp);
    METRO_CHECK(rep != nullptr, "ISR node %d hosts no replica of %s/%d", node,
                request.topic.c_str(), request.partition);
    const Status replicated = rep->log.AppendReplicaBatch(request.batch);
    if (!replicated.ok()) {
      lead->log.TruncateTo(base);
      for (std::size_t j = 0; j < i; ++j) {
        const int prior = pm.isr[j];
        if (prior == pm.leader) continue;
        nodes_[std::size_t(prior)]->FindMutable(tp)->log.TruncateTo(base);
      }
      return DivergenceError(request, replicated);
    }
  }
  // The batch is durable on the full ISR; only now fold its sequence range
  // into the dedup tables (a rolled-back attempt must stay fresh for its
  // retry) and mark it committed.
  for (std::size_t i = 0; i < pm.isr.size(); ++i) {
    nodes_[std::size_t(pm.isr[i])]->FindMutable(tp)->sequences.ObserveRange(
        request.producer_id, request.first_sequence, count, base);
  }
  request.batch->MarkCommitted();
  pm.high_water = lead->log.end_offset();
  c_records_produced_->Increment(count);
  c_batches_produced_->Increment();
  c_bytes_produced_->Increment(std::int64_t(request.batch->key_value_bytes()));
  if (pm.isr.size() > 1) {
    c_replica_bytes_shared_->Increment(
        std::int64_t(request.batch->payload_bytes()) *
        std::int64_t(pm.isr.size() - 1));
  }
  ProduceAck ack;
  ack.partition = request.partition;
  ack.offset = base;
  ack.count = count;
  return ack;
}

Result<std::vector<Record>> BrokerCluster::Fetch(const std::string& topic,
                                                 int partition,
                                                 std::int64_t offset,
                                                 std::size_t max_records) const {
  MutexLock lock(mu_);
  auto meta = MetaLocked(topic, partition);
  if (!meta.ok()) return meta.status();
  const PartitionMeta& pm = **meta;
  if (pm.leader < 0) {
    return NoLeaderError(topic, partition);
  }
  const BrokerNode::Replica* lead =
      nodes_[std::size_t(pm.leader)]->Find(TopicPartitionView{topic, partition});
  if (lead == nullptr) return InternalError("leader replica missing");
  // The one materializing read: copy out of batch views, crossing batch
  // boundaries. The first view carries the boundary errors; later ones
  // start inside [offset, high-water mark) and cannot fail.
  std::vector<Record> out;
  if (offset >= 0 && offset < pm.high_water) {
    out.reserve(std::min<std::size_t>(max_records,
                                      std::size_t(pm.high_water - offset)));
  }
  std::int64_t cursor = offset;
  do {
    auto view = lead->log.FetchBatch(cursor, max_records - out.size(),
                                     pm.high_water);
    if (!view.ok()) return view.status();
    if (view->empty()) break;
    for (std::size_t i = 0; i < view->size(); ++i) {
      const RecordView rv = (*view)[i];
      Record rec;
      rec.offset = rv.offset();
      rec.timestamp = rv.timestamp();
      rec.key = std::string(rv.key());
      rec.value = std::string(rv.value());
      rec.headers = rv.CopyHeaders();
      rec.producer_id = rv.producer_id();
      rec.sequence = rv.sequence();
      out.push_back(std::move(rec));
    }
    cursor = view->next_offset();
  } while (out.size() < max_records);
  return out;
}

METRO_NOALLOC Result<BatchView> BrokerCluster::FetchBatch(
    const std::string& topic, int partition, std::int64_t offset,
    std::size_t max_records) const {
  MutexLock lock(mu_);
  auto meta = MetaLocked(topic, partition);
  if (!meta.ok()) return meta.status();
  const PartitionMeta& pm = **meta;
  if (pm.leader < 0) {
    return NoLeaderError(topic, partition);
  }
  const BrokerNode::Replica* lead =
      nodes_[std::size_t(pm.leader)]->Find(TopicPartitionView{topic, partition});
  METRO_CHECK(lead != nullptr, "leader %d hosts no replica of %s/%d",
              pm.leader, topic.c_str(), partition);
  return lead->log.FetchBatch(offset, max_records, pm.high_water);
}

Result<PartitionInfo> BrokerCluster::GetPartitionInfo(const std::string& topic,
                                                      int partition) const {
  MutexLock lock(mu_);
  auto meta = MetaLocked(topic, partition);
  if (!meta.ok()) return meta.status();
  const PartitionMeta& pm = **meta;
  if (pm.leader < 0) {
    return NoLeaderError(topic, partition);
  }
  const BrokerNode::Replica* lead =
      nodes_[std::size_t(pm.leader)]->Find(TopicPartitionView{topic, partition});
  if (lead == nullptr) return InternalError("leader replica missing");
  PartitionInfo info;
  info.partition = partition;
  info.begin_offset = lead->log.begin_offset();
  info.end_offset = pm.high_water;
  return info;
}

Result<PartitionView> BrokerCluster::View(const std::string& topic,
                                          int partition) const {
  MutexLock lock(mu_);
  auto meta = MetaLocked(topic, partition);
  if (!meta.ok()) return meta.status();
  const PartitionMeta& pm = **meta;
  PartitionView view;
  view.leader = pm.leader;
  view.replicas = pm.replicas;
  view.isr = pm.isr;
  view.high_water_mark = pm.high_water;
  const int sample = pm.leader >= 0 ? pm.leader : pm.replicas.front();
  const BrokerNode::Replica* rep =
      nodes_[std::size_t(sample)]->Find(TopicPartitionView{topic, partition});
  if (rep != nullptr) {
    view.begin_offset = rep->log.begin_offset();
    view.end_offset = rep->log.end_offset();
  }
  return view;
}

Result<int> BrokerCluster::PreferredLeader(const std::string& topic,
                                           int partition) const {
  MutexLock lock(mu_);
  auto meta = MetaLocked(topic, partition);
  if (!meta.ok()) return meta.status();
  return (*meta)->replicas.front();
}

Result<int> BrokerCluster::LeaderOf(const std::string& topic,
                                    int partition) const {
  MutexLock lock(mu_);
  auto meta = MetaLocked(topic, partition);
  if (!meta.ok()) return meta.status();
  return (*meta)->leader;
}

std::int64_t BrokerCluster::EnforceRetention(TimeNs retention) {
  MutexLock lock(mu_);
  const TimeNs cutoff = clock_->Now() - retention;
  std::int64_t dropped = 0;
  for (auto& [name, topic] : topics_) {
    for (std::size_t p = 0; p < topic.partitions.size(); ++p) {
      const PartitionMeta& pm = topic.partitions[p];
      const TopicPartition tp{name, int(p)};
      // The janitor runs on every replica — dead nodes included — so the
      // retention floors stay aligned and a revived follower resyncs
      // against the same window the leader retains.
      for (const int node : pm.replicas) {
        const std::int64_t n =
            nodes_[std::size_t(node)]->replica(tp).log.EnforceRetention(cutoff);
        if (node == pm.leader) dropped += n;
      }
    }
  }
  return dropped;
}

Status BrokerCluster::KillNode(int node) {
  std::vector<ClusterEvent> events;
  MutexLock lock(mu_);
  if (node < 0 || std::size_t(node) >= nodes_.size()) {
    return InvalidArgumentError("node " + std::to_string(node) +
                                " out of range");
  }
  BrokerNode& killed = *nodes_[std::size_t(node)];
  if (!killed.up()) return Status::Ok();  // already dead
  killed.Kill();
  {
    ClusterEvent event;
    event.kind = ClusterEvent::Kind::kNodeKilled;
    event.node = node;
    events.push_back(std::move(event));
  }
  for (auto& [name, topic] : topics_) {
    for (std::size_t p = 0; p < topic.partitions.size(); ++p) {
      PartitionMeta& pm = topic.partitions[p];
      if (!Contains(pm.isr, node)) continue;
      const std::vector<int> old_isr = pm.isr;
      pm.isr.erase(std::find(pm.isr.begin(), pm.isr.end(), node));
      {
        ClusterEvent event;
        event.kind = ClusterEvent::Kind::kIsrShrink;
        event.topic = name;
        event.partition = int(p);
        event.node = node;
        events.push_back(std::move(event));
      }
      if (pm.leader != node) continue;
      if (pm.isr.empty()) {
        // The last in-sync replica died. Remember who was in sync at that
        // moment: only those replicas hold every acked record, so only they
        // may be elected when nodes come back (no unclean election).
        pm.final_isr = old_isr;
        pm.leader = -1;
        ClusterEvent event;
        event.kind = ClusterEvent::Kind::kQuorumLost;
        event.topic = name;
        event.partition = int(p);
        event.node = node;
        events.push_back(std::move(event));
      } else {
        // ISR members hold every acked record by the synchronous-replication
        // invariant, so the first survivor in replica order takes over with
        // the high-water mark intact.
        const int successor = pm.isr.front();
        pm.leader = successor;
        c_failovers_->Increment();
        ClusterEvent event;
        event.kind = ClusterEvent::Kind::kFailover;
        event.topic = name;
        event.partition = int(p);
        event.node = successor;
        event.prev_node = node;
        events.push_back(std::move(event));
      }
    }
  }
  lock.Unlock();
  Emit(std::move(events));
  return Status::Ok();
}

void BrokerCluster::ResyncReplicaLocked(const TopicPartition& tp,
                                        PartitionMeta& meta, int node,
                                        std::vector<ClusterEvent>& events) {
  if (Contains(meta.isr, node)) return;
  BrokerNode::Replica& lead =
      nodes_[std::size_t(meta.leader)]->replica(tp);
  BrokerNode::Replica& rep = nodes_[std::size_t(node)]->replica(tp);
  // A follower can never be ahead of the leader (appends are synchronous
  // across the ISR), but truncate defensively before copying the suffix.
  rep.log.TruncateTo(lead.log.end_offset());
  if (rep.log.end_offset() < lead.log.begin_offset()) {
    // The follower's window fell entirely behind the leader's retention
    // floor; restart it from the floor. Dedup state from records older than
    // the retained window is rebuilt only from what the leader still holds.
    rep.log.Reset(lead.log.begin_offset());
    rep.sequences.Clear();
  }
  std::int64_t off = rep.log.end_offset();
  while (off < lead.log.end_offset()) {
    // Zero-copy resync: share the leader's retained segment whenever the
    // follower's cursor sits on a whole-batch boundary — the common case,
    // since both sides append batch-at-a-time.
    if (std::shared_ptr<const RecordBatch> seg = lead.log.BatchAt(off)) {
      const std::int64_t next = seg->end_offset();
      if (!rep.log.AppendReplicaBatch(seg).ok()) {
        // Divergent follower state: abort the resync before observing any
        // dedup state. The follower stays out of the ISR and the next
        // heartbeat round retries from its (unchanged) end offset.
        return;
      }
      rep.sequences.ObserveRange(seg->producer_id(), seg->first_sequence(),
                                 std::int64_t(seg->size()), off);
      off = next;
      continue;
    }
    // Cold fallback (the cursor landed mid-batch after a defensive
    // truncation): copy one-record batches until the next batch boundary.
    const std::optional<RecordView> rv = lead.log.ViewAt(off);
    if (!rv) break;  // unreachable: [end, lead end) is retained
    RecordBatchBuilder builder;
    builder.Add(rv->key(), rv->value(), rv->CopyHeaders());
    std::shared_ptr<RecordBatch> one = builder.Build();
    one->Seal(off, rv->timestamp(), rv->producer_id(), rv->sequence());
    if (!rep.log.AppendReplicaBatch(std::move(one)).ok()) return;  // retry
    // As above: dedup state only after the append landed.
    rep.sequences.Observe(rv->producer_id(), rv->sequence(), off);
    ++off;
  }
  // Rejoin the ISR, keeping it in replica (preferred-leader) order.
  std::vector<int> isr;
  for (const int r : meta.replicas) {
    if (r == node || Contains(meta.isr, r)) isr.push_back(r);
  }
  meta.isr = std::move(isr);
  ClusterEvent event;
  event.kind = ClusterEvent::Kind::kIsrExpand;
  event.topic = tp.topic;
  event.partition = tp.partition;
  event.node = node;
  events.push_back(std::move(event));
}

Status BrokerCluster::ReviveNode(int node) {
  std::vector<ClusterEvent> events;
  MutexLock lock(mu_);
  if (node < 0 || std::size_t(node) >= nodes_.size()) {
    return InvalidArgumentError("node " + std::to_string(node) +
                                " out of range");
  }
  BrokerNode& revived = *nodes_[std::size_t(node)];
  if (revived.up()) return Status::Ok();  // already alive
  revived.Revive();
  {
    ClusterEvent event;
    event.kind = ClusterEvent::Kind::kNodeRevived;
    event.node = node;
    events.push_back(std::move(event));
  }
  for (auto& [name, topic] : topics_) {
    for (std::size_t p = 0; p < topic.partitions.size(); ++p) {
      PartitionMeta& pm = topic.partitions[p];
      if (!Contains(pm.replicas, node)) continue;
      const TopicPartition tp{name, int(p)};
      if (pm.leader >= 0) {
        ResyncReplicaLocked(tp, pm, node, events);
        continue;
      }
      // Leaderless partition: elect the revived node only if it was in the
      // final ISR (an empty snapshot means the partition never had a leader,
      // so nothing acked can be lost). Anyone else waits, out of the ISR,
      // for a final-ISR member to return.
      if (!pm.final_isr.empty() && !Contains(pm.final_isr, node)) continue;
      pm.leader = node;
      pm.isr = {node};
      pm.high_water = revived.replica(tp).log.end_offset();
      {
        ClusterEvent event;
        event.kind = ClusterEvent::Kind::kLeaderElected;
        event.topic = name;
        event.partition = int(p);
        event.node = node;
        events.push_back(std::move(event));
      }
      // Bring the other survivors back in sync under the new leader.
      for (const int r : pm.replicas) {
        if (r != node && nodes_[std::size_t(r)]->up()) {
          ResyncReplicaLocked(tp, pm, r, events);
        }
      }
    }
  }
  lock.Unlock();
  Emit(std::move(events));
  return Status::Ok();
}

Result<bool> BrokerCluster::NodeUp(int node) const {
  MutexLock lock(mu_);
  if (node < 0 || std::size_t(node) >= nodes_.size()) {
    return InvalidArgumentError("node " + std::to_string(node) +
                                " out of range");
  }
  return nodes_[std::size_t(node)]->up();
}

Status BrokerCluster::Probe() const {
  MutexLock lock(mu_);
  for (const auto& [name, topic] : topics_) {
    for (std::size_t p = 0; p < topic.partitions.size(); ++p) {
      const PartitionMeta& pm = topic.partitions[p];
      const std::string where = name + "/" + std::to_string(p);
      if (pm.leader < 0) {
        return UnavailableError("partition " + where + " has no leader");
      }
      if (int(pm.isr.size()) < quorum()) {
        return UnavailableError("partition " + where + " ISR " +
                                std::to_string(pm.isr.size()) +
                                " below quorum " + std::to_string(quorum()));
      }
    }
  }
  return Status::Ok();
}

Result<std::vector<int>> BrokerCluster::JoinGroup(const std::string& group,
                                                  const std::string& topic,
                                                  const std::string& member) {
  int partitions = 0;
  {
    MutexLock lock(mu_);
    const auto it = topics_.find(topic);
    if (it == topics_.end()) return NotFoundError("topic " + topic);
    partitions = int(it->second.partitions.size());
  }
  return groups_.Join(group, topic, member, partitions);
}

Status BrokerCluster::LeaveGroup(const std::string& group,
                                 const std::string& member) {
  auto topic = groups_.TopicOf(group);
  if (!topic.ok()) return topic.status();
  int partitions = 0;
  {
    MutexLock lock(mu_);
    const auto it = topics_.find(*topic);
    if (it != topics_.end()) partitions = int(it->second.partitions.size());
  }
  return groups_.Leave(group, member, partitions);
}

std::vector<int> BrokerCluster::Assignment(const std::string& group,
                                           const std::string& member) const {
  return groups_.Assignment(group, member);
}

Status BrokerCluster::CommitOffset(const std::string& group,
                                   const std::string& topic, int partition,
                                   std::int64_t offset) {
  int partitions = 0;
  std::int64_t end = 0;
  {
    MutexLock lock(mu_);
    const auto it = topics_.find(topic);
    if (it == topics_.end()) return NotFoundError("topic " + topic);
    partitions = int(it->second.partitions.size());
    if (partition >= 0 && partition < partitions) {
      end = it->second.partitions[std::size_t(partition)].high_water;
    }
  }
  return groups_.Commit(group, topic, partition, offset, partitions, end);
}

std::int64_t BrokerCluster::CommittedOffset(const std::string& group,
                                            const std::string& topic,
                                            int partition) const {
  return groups_.Committed(group, topic, partition);
}

Result<std::int64_t> BrokerCluster::Lag(const std::string& group) const {
  auto topic = groups_.TopicOf(group);
  if (!topic.ok()) return topic.status();
  auto committed = groups_.CommittedAll(group);
  if (!committed.ok()) return committed.status();
  MutexLock lock(mu_);
  const auto it = topics_.find(*topic);
  if (it == topics_.end()) return NotFoundError("topic " + *topic);
  std::int64_t lag = 0;
  for (std::size_t p = 0; p < it->second.partitions.size(); ++p) {
    const auto cit = committed->find(int(p));
    const std::int64_t done = cit == committed->end() ? 0 : cit->second;
    lag += std::max<std::int64_t>(
        it->second.partitions[p].high_water - done, 0);
  }
  return lag;
}

}  // namespace metro::mq
