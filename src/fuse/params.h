// FUSE protocol constants. Section 3.3: there is deliberately NO API for
// applications to tune the timeout/retry policy — these values are fixed by
// the implementation, and applications layer their own timeouts on top.
#ifndef FUSE_FUSE_PARAMS_H_
#define FUSE_FUSE_PARAMS_H_

#include "common/time.h"

namespace fuse {

struct FuseParams {
  // Root: how long CreateGroup waits for every GroupCreateReply before the
  // creation attempt fails (not stated in the paper; chosen well above the
  // worst observed RTT).
  Duration create_timeout = Duration::Seconds(30);

  // Root: how long to wait for InstallChecking from every member before
  // attempting a repair (paper section 6.2: install timer => repair).
  Duration install_timeout = Duration::Seconds(45);

  // Member: after initiating repair (NeedRepair), how long to wait to hear
  // from the root before locally signalling failure (section 7.4: "If a root
  // has failed, the members time out after 1 minute").
  Duration member_repair_timeout = Duration::Seconds(60);

  // Root: how long to wait for all GroupRepairReplies (section 7.4: "If a
  // member has failed, the root times out after 2 minutes").
  Duration root_repair_timeout = Duration::Seconds(120);

  // Link liveness deadline: a monitored link is declared down once this long
  // has passed since both its last install and the last confirmation of its
  // neighbor (a matching ping digest or a reconcile agreement). One sweep
  // timer per node enforces it. Also the backstop of a participant that has
  // no links. Slightly more than ping period (60 s) + ping timeout (20 s).
  Duration link_liveness_timeout = Duration::Seconds(90);

  // Grace period before a liveness-tree disagreement is acted on (section
  // 6.3: resolves the InstallChecking/ping race; 5 s in the paper).
  Duration grace_period = Duration::Seconds(5);

  // Per-group exponential backoff for repair frequency, capped at 40 s
  // (section 6.5).
  Duration repair_backoff_initial = Duration::Seconds(5);
  Duration repair_backoff_cap = Duration::Seconds(40);
  // After this long without a repair, the backoff resets.
  Duration repair_backoff_reset = Duration::Seconds(120);

  // Rate limit for reconcile exchanges per link.
  Duration reconcile_min_interval = Duration::Seconds(5);

  // Ablation switch (paper section 6): when false, a path failure involving a
  // delegate is signalled to the application immediately instead of being
  // repaired ("has the advantage of implementation simplicity, but can be a
  // significant source of false positives").
  bool attempt_repair = true;
};

}  // namespace fuse

#endif  // FUSE_FUSE_PARAMS_H_
