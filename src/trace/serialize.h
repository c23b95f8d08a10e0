// Workload (de)serialisation.
//
// Text format, one file, two sections:
//   #applications
//   id,name,containers,cpu_millis,mem_mib,priority,anti_within
//   #rules
//   app_a,app_b
// Within-app rules are implied by anti_within and not repeated in #rules.
// Round-trips exactly (ids are dense and preserved).
#pragma once

#include <iosfwd>
#include <string>

#include "cluster/topology.h"
#include "trace/workload.h"

namespace aladdin::trace {

void SaveWorkload(const Workload& workload, std::ostream& os);
bool SaveWorkloadToFile(const Workload& workload, const std::string& path);

// Returns false on malformed input (partial reads leave `out` unspecified).
bool LoadWorkload(std::istream& is, Workload& out);
bool LoadWorkloadFromFile(const std::string& path, Workload& out);

// Topology (de)serialisation: one CSV row per machine,
//   subcluster_index,rack_index,cpu_millis,mem_mib
// preceded by a "#machines" header. Rack/sub-cluster indices must be dense
// and non-decreasing (machines are listed in topology order), which is what
// SaveTopology emits. Supports heterogeneous capacities.
void SaveTopology(const cluster::Topology& topology, std::ostream& os);
bool LoadTopology(std::istream& is, cluster::Topology& out);
bool LoadTopologyFromFile(const std::string& path, cluster::Topology& out);

}  // namespace aladdin::trace
