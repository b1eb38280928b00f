#include "provenance/view.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/cancel.h"
#include "obs/trace.h"
#include "provenance/zoom.h"

namespace lipstick {

namespace {

/// The reason the calling thread's token fired; only valid right after
/// PollCurrentCancel() returned true.
Status FiredCancelStatus() { return CurrentCancelToken()->status(); }

}  // namespace

GraphView GraphView::MakeIdentity(const GraphSnapshot& snap) {
  GraphView view(snap);
  view.num_visible_underlying_ = snap.num_alive();
  return view;
}

GraphView GraphView::Clone() const {
  GraphView copy(*snap_);
  if (mask_.has_value()) copy.Mask().CopyFrom(**mask_);
  copy.num_visible_underlying_ = num_visible_underlying_;
  copy.synthetic_ = synthetic_;
  copy.syn_alive_ = syn_alive_;
  copy.num_syn_alive_ = num_syn_alive_;
  if (rewired_.has_value()) {
    copy.rewired_.emplace(snap_->AcquireVisited());
    (*copy.rewired_)->CopyFrom(**rewired_);
  }
  copy.overrides_ = overrides_;
  return copy;
}

VisitedSet& GraphView::Mask() {
  if (!mask_.has_value()) mask_.emplace(snap_->AcquireVisited());
  return **mask_;
}

void GraphView::Hide(NodeId id) {
  if (IsSynthetic(id)) {
    syn_alive_[SyntheticIndex(id)] = 0;
    --num_syn_alive_;
  } else {
    Mask().Set(id);
    --num_visible_underlying_;
  }
}

GraphView::Marks GraphView::NewMarks() const {
  return Marks{snap_->AcquireVisited(),
               std::vector<uint8_t>(synthetic_.size(), 0)};
}

GraphView::ChildOverlay GraphView::BuildChildOverlay() const {
  ChildOverlay overlay;
  // Rewired module outputs: their parents became {zoom node, m node}, so
  // the zoom node and the m node each gain the output as a child (the
  // output's original CSR in-edges are suppressed by ForEachChild).
  for (const auto& [out, parents] : overrides_) {
    if (!Visible(out)) continue;
    for (NodeId p : parents) {
      if (VisibleOrSynthetic(p)) overlay.edges.emplace_back(p, out);
    }
  }
  // Synthetic zoom nodes are children of their (visible) input nodes.
  for (size_t k = 0; k < synthetic_.size(); ++k) {
    if (!syn_alive_[k]) continue;
    NodeId zoom_id = SyntheticId(k);
    for (NodeId p : synthetic_[k].parents) {
      if (Visible(p)) overlay.edges.emplace_back(p, zoom_id);
    }
  }
  if (overlay.edges.empty()) return overlay;
  std::sort(overlay.edges.begin(), overlay.edges.end());
  overlay.parents.emplace(NewMarks());
  for (const auto& [parent, child] : overlay.edges) {
    TestAndMark(*overlay.parents, parent);
  }
  return overlay;
}

Status GraphView::ApplyZoomOut(const std::vector<std::string>& modules) {
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(snap_->graph(), "ZoomOut"));
  std::set<std::string> unique(modules.begin(), modules.end());
  // One shared mark set across modules makes earlier modules' removals
  // invisible to later planning passes, mirroring the eager path's
  // seal-between-modules behavior.
  for (const std::string& module : unique) {
    Result<internal::ZoomPlan> plan =
        internal::PlanZoomOut(*snap_, module, Mask());
    if (!plan.ok()) return plan.status();
    num_visible_underlying_ -= plan->num_removed;
    for (internal::ZoomInvocationPlan& ip : plan->invocations) {
      NodeId zoom_id = SyntheticId(synthetic_.size());
      if (!ip.outputs.empty() && !rewired_.has_value()) {
        rewired_.emplace(snap_->AcquireVisited());
      }
      for (NodeId out : ip.outputs) {
        (*rewired_)->Set(out);
        overrides_[out] = {zoom_id, ip.m_node};
      }
      PushSynthetic(SyntheticNode{module, ip.invocation, ip.m_node,
                                  std::move(ip.zoom_parents)});
    }
  }
  return Status::OK();
}

Status GraphView::ApplySubgraph(const std::vector<NodeId>& roots, bool up,
                                bool down) {
  LIPSTICK_ASSIGN_OR_RETURN(std::vector<NodeId> members,
                            SubgraphMembers(roots, up, down));
  // Every member is visible: hide everything, then reveal the members.
  VisitedSet& mask = Mask();
  mask.SetAll();
  num_visible_underlying_ = 0;
  std::fill(syn_alive_.begin(), syn_alive_.end(), 0);
  num_syn_alive_ = 0;
  for (NodeId id : members) {
    if (IsSynthetic(id)) {
      syn_alive_[SyntheticIndex(id)] = 1;
      ++num_syn_alive_;
    } else {
      mask.Reset(id);
      ++num_visible_underlying_;
    }
  }
  return Status::OK();
}

Result<std::vector<NodeId>> GraphView::SubgraphMembers(
    const std::vector<NodeId>& roots, bool up, bool down) const {
  if (down) {
    LIPSTICK_RETURN_IF_ERROR(RequireSealed(snap_->graph(), "subgraph queries"));
  }
  // `in` marks members as they are found; `found` lists them, and doubles
  // as the ancestor worklist.
  Marks in = NewMarks();
  std::vector<NodeId> found;
  for (NodeId r : roots) {
    if (VisibleOrSynthetic(r) && !TestAndMark(in, r)) found.push_back(r);
  }
  const size_t num_seeds = found.size();
  if (up) {
    for (size_t head = 0; head < found.size(); ++head) {
      if (PollCurrentCancel()) return FiredCancelStatus();
      for (NodeId p : ParentsOf(found[head])) {
        if (VisibleOrSynthetic(p) && !TestAndMark(in, p)) found.push_back(p);
      }
    }
  }
  if (down) {
    ChildOverlay overlay = BuildChildOverlay();
    Marks reached = NewMarks();
    std::vector<NodeId> work(found.begin(), found.begin() + num_seeds);
    for (NodeId s : work) TestAndMark(reached, s);
    for (size_t head = 0; head < work.size(); ++head) {
      if (PollCurrentCancel()) return FiredCancelStatus();
      ForEachChild(work[head], overlay, [&](NodeId c) {
        if (TestAndMark(reached, c)) return;
        work.push_back(c);
        if (!TestAndMark(in, c)) found.push_back(c);
        if (!up) return;
        // The subgraph query also keeps co-parents of descendants: every
        // node a descendant is jointly derived from.
        for (NodeId p : ParentsOf(c)) {
          if (VisibleOrSynthetic(p) && !TestAndMark(in, p)) {
            found.push_back(p);
          }
        }
      });
    }
  }
  return found;
}

Status GraphView::ApplyRestrict(const FactPredicate& pred) {
  for (uint32_t s = 0; s < snap_->num_shards(); ++s) {
    for (uint64_t i = 0; i < snap_->ShardSize(s); ++i) {
      NodeId id = MakeNodeId(s, i);
      if (!Visible(id)) continue;
      NodeView n = snap_->node(id);
      if (!pred(n.label(), n.role(), n.payload())) Hide(id);
    }
  }
  for (size_t k = 0; k < synthetic_.size(); ++k) {
    if (syn_alive_[k] &&
        !pred(NodeLabel::kZoomedModule, NodeRole::kZoom,
              synthetic_[k].module)) {
      Hide(SyntheticId(k));
    }
  }
  return Status::OK();
}

Status GraphView::ApplyDeleteProp(const std::vector<NodeId>& seeds,
                                  size_t* removed) {
  Result<std::vector<NodeId>> order = DeletionOrder(seeds);
  if (!order.ok()) return order.status();
  for (NodeId id : *order) Hide(id);
  if (removed != nullptr) *removed = order->size();
  return Status::OK();
}

Result<std::vector<NodeId>> GraphView::DeletionOrder(
    std::span<const NodeId> seeds, NodeId stop_at) const {
  LIPSTICK_RETURN_IF_ERROR(
      RequireSealed(snap_->graph(), "deletion propagation"));
  Marks deleted = NewMarks();
  std::vector<NodeId> order;  // deleted nodes, also the BFS worklist
  for (NodeId s : seeds) {
    if (!VisibleOrSynthetic(s) || TestAndMark(deleted, s)) continue;
    order.push_back(s);
    if (s == stop_at) return order;
  }
  ChildOverlay overlay = BuildChildOverlay();
  // Visible in-edges a touched child still has: counted once on its first
  // lost edge, then decremented, so a wide `+` or aggregate node pays its
  // fan-in once rather than once per lost edge.
  std::unordered_map<NodeId, size_t> remaining;
  bool stopped = false;
  for (size_t head = 0; head < order.size() && !stopped; ++head) {
    if (PollCurrentCancel()) return FiredCancelStatus();
    ForEachChild(order[head], overlay, [&](NodeId child) {
      if (stopped || Marked(deleted, child)) return;
      auto [it, first_loss] = remaining.try_emplace(child, 0);
      if (first_loss) {
        for (NodeId p : ParentsOf(child)) {
          it->second += VisibleOrSynthetic(p) ? 1 : 0;
        }
      }
      --it->second;
      NodeLabel label = IsSynthetic(child) ? NodeLabel::kZoomedModule
                                           : snap_->node(child).label();
      bool joint = label == NodeLabel::kTimes || label == NodeLabel::kTensor;
      if (joint || it->second == 0) {
        TestAndMark(deleted, child);
        order.push_back(child);
        stopped = child == stop_at;
      }
    });
  }
  return order;
}

Result<ProvenanceGraph> GraphView::Materialize() const {
  obs::ObsSpan span("query", "view_materialize");
  const GraphSnapshot& snap = *snap_;
  ProvenanceGraph out;
  // Reproduce the source pool id-for-id, so every payload and invocation
  // name in the copied records resolves to the same StrId.
  const StringPool& pool = snap.strings();
  for (StrId i = 1; i < pool.size(); ++i) {
    out.InternString(pool.Get(i));
  }
  std::vector<ShardWriter> writers;
  writers.push_back(out.writer());
  for (uint32_t s = 1; s < snap.num_shards(); ++s) {
    writers.push_back(out.AddShard());
  }
  // Every underlying node is restored at its original (shard, index) with
  // the view's liveness and parents; hidden and originally-dead nodes stay
  // in place as dead records, exactly as the eager mutating operators
  // leave them.
  NodeRecord rec;
  for (uint32_t s = 0; s < snap.num_shards(); ++s) {
    for (uint64_t i = 0; i < snap.ShardSize(s); ++i) {
      NodeId id = MakeNodeId(s, i);
      NodeView n = snap.node(id);
      rec.label = n.label();
      rec.role = n.role();
      rec.is_value_node = n.is_value_node();
      rec.alive = Visible(id);
      rec.invocation = n.invocation();
      std::span<const NodeId> ps = ParentsOf(id);
      rec.parents.assign(ps.begin(), ps.end());
      rec.payload = std::string(n.payload());
      rec.value = n.value();
      writers[s].Restore(rec);
    }
  }
  // Synthetic zoom nodes continue shard 0's index space, exactly where the
  // eager writer would have appended them; ones hidden by a later pipeline
  // stage are restored dead, like any other hidden node.
  for (size_t k = 0; k < synthetic_.size(); ++k) {
    const SyntheticNode& z = synthetic_[k];
    NodeRecord zrec;
    zrec.label = NodeLabel::kZoomedModule;
    zrec.role = NodeRole::kZoom;
    zrec.alive = syn_alive_[k] != 0;
    zrec.invocation = z.invocation;
    zrec.parents = z.parents;
    zrec.payload = z.module;
    writers[0].Restore(zrec);
  }
  for (const InvocationInfo& inv : snap.invocations()) {
    out.RestoreInvocation(inv);
  }
  out.Seal();
  span.Arg("nodes", static_cast<uint64_t>(out.num_nodes()));
  return out;
}

}  // namespace lipstick
