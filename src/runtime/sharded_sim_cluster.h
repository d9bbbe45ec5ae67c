// Kept only because notifybench/src/clusters.cc includes this name; the
// benchmark tree changes only together with the benchmark itself.
#include "runtime/sim_cluster.h"
