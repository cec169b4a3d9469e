#include "oracle.h"

#include <cstdio>
#include <vector>

namespace servebench {
namespace {

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out->append(buf);
}

void AppendMembers(std::string* out, const std::vector<size_t>& members) {
  out->append(" m=");
  for (size_t m : members) {
    out->append(std::to_string(m));
    out->push_back(',');
  }
}

}  // namespace

std::string DumpCount(const topkdup::topk::TopKCountResult& result) {
  std::string out = result.exact_from_pruning ? "exact_from_pruning\n" : "";
  for (const topkdup::topk::TopKAnswerSet& answer : result.answers) {
    out.append("answer score=");
    AppendDouble(&out, answer.score);
    out.push_back('\n');
    for (const topkdup::topk::AnswerGroup& g : answer.groups) {
      out.append(" group rep=" + std::to_string(g.representative) + " w=");
      AppendDouble(&out, g.weight);
      out.append(" lo=");
      AppendDouble(&out, g.count_lower);
      out.append(" hi=");
      AppendDouble(&out, g.count_upper);
      AppendMembers(&out, g.members);
      out.push_back('\n');
    }
  }
  return out;
}

std::string DumpRank(const topkdup::topk::TopKRankResult& result) {
  std::string out =
      "resolved_pruned=" + std::to_string(result.resolved_pruned) + "\n";
  for (const topkdup::topk::RankedGroup& rg : result.ranked) {
    out.append("group rep=" + std::to_string(rg.group.rep) + " w=");
    AppendDouble(&out, rg.group.weight);
    out.append(" ub=");
    AppendDouble(&out, rg.upper_bound);
    AppendMembers(&out, rg.group.members);
    out.push_back('\n');
  }
  return out;
}

}  // namespace servebench
