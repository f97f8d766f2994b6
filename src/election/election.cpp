#include "election/election.hpp"

namespace ule {

ElectionVerdict judge_election(const SyncEngine& eng) {
  ElectionVerdict v;
  const auto& r = eng.result();
  v.elected = r.elected;
  v.non_elected = r.non_elected;
  v.undecided = r.undecided;
  v.unique_leader = (v.elected == 1 && v.undecided == 0);
  if (v.elected == 1) {
    for (NodeId s = 0; s < eng.graph().n(); ++s) {
      if (eng.status(s) == Status::Elected) {
        v.leader_slot = s;
        break;
      }
    }
  }
  return v;
}

ElectionReport run_election(const Graph& g, const ProcessFactory& factory,
                            const RunOptions& opt,
                            const std::function<void(const SyncEngine&)>& inspect) {
  SyncEngine eng(g, opt);

  ElectionReport rep;
  if (!opt.anonymous) {
    Rng id_rng(opt.seed ^ 0x1D5B1D5B1D5B1D5BULL);
    rep.uids = assign_ids(g.n(), opt.ids, id_rng);
    eng.set_uids(rep.uids);
  }
  eng.set_knowledge(opt.knowledge);
  if (opt.wakeup) eng.set_wakeup(*opt.wakeup);
  eng.init_processes(factory);

  rep.run = eng.run();
  rep.verdict = judge_election(eng);
  rep.statuses.reserve(g.n());
  for (NodeId s = 0; s < g.n(); ++s) rep.statuses.push_back(eng.status(s));
  rep.sent_by_node = eng.sent_by_node();
  if (inspect) inspect(eng);
  return rep;
}

}  // namespace ule
