#include "trace/serialize.h"

#include <fstream>
#include <ostream>

#include "common/csv.h"
#include "common/log.h"
#include "common/strings.h"

namespace aladdin::trace {

void SaveWorkload(const Workload& workload, std::ostream& os) {
  os << "#applications\n";
  CsvWriter writer(os);
  for (const auto& app : workload.applications()) {
    writer.Field(static_cast<std::int64_t>(app.id.value()))
        .Field(app.name)
        .Field(static_cast<std::int64_t>(app.containers.size()))
        .Field(app.request.cpu_millis())
        .Field(app.request.mem_mib())
        .Field(static_cast<std::int64_t>(app.priority))
        .Field(static_cast<std::int64_t>(app.anti_affinity_within ? 1 : 0));
    writer.EndRow();
  }
  os << "#rules\n";
  for (const auto& rule : workload.constraints().rules()) {
    if (rule.a == rule.b) continue;  // implied by anti_within
    writer.Field(static_cast<std::int64_t>(rule.a.value()))
        .Field(static_cast<std::int64_t>(rule.b.value()));
    writer.EndRow();
  }
}

bool SaveWorkloadToFile(const Workload& workload, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    LOG_ERROR << "cannot open " << path << " for writing";
    return false;
  }
  SaveWorkload(workload, os);
  return static_cast<bool>(os);
}

bool LoadWorkload(std::istream& is, Workload& out) {
  out = Workload();
  enum class Section { kNone, kApplications, kRules } section = Section::kNone;
  // Rows come through the CSV reader so quoted fields (application names
  // containing commas) parse exactly as SaveWorkload wrote them.
  CsvReader csv(is);
  std::vector<std::string> fields;
  std::size_t line_no = 0;
  while (csv.NextRow(fields)) {
    ++line_no;
    if (fields.size() == 1) {
      const auto trimmed = Trim(fields[0]);
      if (trimmed.empty()) continue;
      if (trimmed == "#applications") {
        section = Section::kApplications;
        continue;
      }
      if (trimmed == "#rules") {
        section = Section::kRules;
        continue;
      }
    }
    if (section == Section::kApplications) {
      if (fields.size() != 7) {
        LOG_ERROR << "line " << line_no << ": expected 7 fields";
        return false;
      }
      std::int64_t id, count, cpu, mem, priority, anti;
      if (!ParseInt64(fields[0], id) || !ParseInt64(fields[2], count) ||
          !ParseInt64(fields[3], cpu) || !ParseInt64(fields[4], mem) ||
          !ParseInt64(fields[5], priority) || !ParseInt64(fields[6], anti) ||
          count < 1) {
        LOG_ERROR << "line " << line_no << ": malformed application row";
        return false;
      }
      // Ids must be dense and in order — they index the tables directly.
      if (id != static_cast<std::int64_t>(out.application_count())) {
        LOG_ERROR << "line " << line_no << ": non-dense application id " << id;
        return false;
      }
      out.AddApplication(fields[1], static_cast<std::size_t>(count),
                         cluster::ResourceVector(cpu, mem),
                         static_cast<cluster::Priority>(priority), anti != 0);
    } else if (section == Section::kRules) {
      if (fields.size() != 2) {
        LOG_ERROR << "line " << line_no << ": expected 2 fields";
        return false;
      }
      std::int64_t a, b;
      if (!ParseInt64(fields[0], a) || !ParseInt64(fields[1], b) || a < 0 ||
          b < 0 || a >= static_cast<std::int64_t>(out.application_count()) ||
          b >= static_cast<std::int64_t>(out.application_count())) {
        LOG_ERROR << "line " << line_no << ": malformed rule row";
        return false;
      }
      out.AddAntiAffinity(
          cluster::ApplicationId(static_cast<std::int32_t>(a)),
          cluster::ApplicationId(static_cast<std::int32_t>(b)));
    } else {
      LOG_ERROR << "line " << line_no << ": data before a section header";
      return false;
    }
  }
  return true;
}

bool LoadWorkloadFromFile(const std::string& path, Workload& out) {
  std::ifstream is(path);
  if (!is) {
    LOG_ERROR << "cannot open " << path;
    return false;
  }
  return LoadWorkload(is, out);
}

void SaveTopology(const cluster::Topology& topology, std::ostream& os) {
  os << "#machines\n";
  CsvWriter writer(os);
  for (const auto& machine : topology.machines()) {
    writer.Field(static_cast<std::int64_t>(machine.subcluster.value()))
        .Field(static_cast<std::int64_t>(machine.rack.value()))
        .Field(machine.capacity.cpu_millis())
        .Field(machine.capacity.mem_mib());
    writer.EndRow();
  }
}

bool LoadTopology(std::istream& is, cluster::Topology& out) {
  out = cluster::Topology();
  CsvReader csv(is);
  std::vector<std::string> fields;
  bool in_section = false;
  std::size_t line_no = 0;
  // Indices as written by SaveTopology are dense and non-decreasing, so new
  // racks / sub-clusters appear exactly when the index grows by one.
  std::int64_t next_sub = 0;
  std::int64_t next_rack = 0;
  cluster::SubClusterId sub = cluster::SubClusterId::Invalid();
  cluster::RackId rack = cluster::RackId::Invalid();
  while (csv.NextRow(fields)) {
    ++line_no;
    if (fields.size() == 1 && Trim(fields[0]) == "#machines") {
      in_section = true;
      continue;
    }
    if (!in_section || fields.size() != 4) {
      LOG_ERROR << "topology line " << line_no << ": malformed row";
      return false;
    }
    std::int64_t sub_idx, rack_idx, cpu, mem;
    if (!ParseInt64(fields[0], sub_idx) || !ParseInt64(fields[1], rack_idx) ||
        !ParseInt64(fields[2], cpu) || !ParseInt64(fields[3], mem) ||
        cpu < 0 || mem < 0) {
      LOG_ERROR << "topology line " << line_no << ": bad values";
      return false;
    }
    if (sub_idx == next_sub) {
      sub = out.AddSubCluster();
      ++next_sub;
    } else if (sub_idx != next_sub - 1) {
      LOG_ERROR << "topology line " << line_no << ": non-dense sub-cluster";
      return false;
    }
    if (rack_idx == next_rack) {
      rack = out.AddRack(sub);
      ++next_rack;
    } else if (rack_idx != next_rack - 1) {
      LOG_ERROR << "topology line " << line_no << ": non-dense rack";
      return false;
    }
    out.AddMachine(rack, cluster::ResourceVector(cpu, mem));
  }
  return true;
}

bool LoadTopologyFromFile(const std::string& path, cluster::Topology& out) {
  std::ifstream is(path);
  if (!is) {
    LOG_ERROR << "cannot open " << path;
    return false;
  }
  return LoadTopology(is, out);
}

}  // namespace aladdin::trace
