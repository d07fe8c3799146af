// skylint CLI.
//
//   skylint --root <repo-root> [--rules a,b,c] [relative-paths...]
//
// With no explicit paths, lints every .cc/.h/.cpp under src/, tools/,
// bench/, tests/ (minus tests/skylint_fixtures) and examples/. Prints one
// line per finding:
//
//   file:line: rule-id: message
//
// and always ends with a summary line (`skylint: N violations across M
// files`, with a per-rule breakdown when nonzero) so CI logs show at a
// glance which rule tripped. `--rules` restricts reporting to a
// comma-separated subset of rule ids.
//
// Exit code 0 = clean, 1 = findings, 2 = usage error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "skylint.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: skylint [--root DIR] [--rules a,b,c] [paths...]\n"
               "  --root DIR     repository root to lint (default: .)\n"
               "  --rules a,b,c  only report these rule ids (default: all)\n"
               "  paths          root-relative files to lint (default: all of\n"
               "                 src/, tools/, bench/, tests/, examples/)\n");
}

/// Splits a comma-separated rule list; returns false (after printing the
/// offender and the known ids) when any name is not a real rule, so a typo
/// in CI fails loudly instead of silently filtering everything out.
bool ParseRuleFilter(const std::string& arg, std::set<std::string>* out) {
  const std::vector<std::string>& known = skylint::KnownRules();
  size_t begin = 0;
  while (begin <= arg.size()) {
    const size_t comma = arg.find(',', begin);
    const size_t end = comma == std::string::npos ? arg.size() : comma;
    const std::string rule = arg.substr(begin, end - begin);
    if (!rule.empty()) {
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        std::fprintf(stderr, "skylint: unknown rule '%s' in --rules\n",
                     rule.c_str());
        std::string all;
        for (const std::string& k : known) {
          if (!all.empty()) all += ", ";
          all += k;
        }
        std::fprintf(stderr, "skylint: known rules: %s\n", all.c_str());
        return false;
      }
      out->insert(rule);
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::set<std::string> rule_filter;  // empty = all rules
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0) {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--rules") == 0) {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      if (!ParseRuleFilter(argv[++i], &rule_filter)) {
        PrintUsage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage();
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "skylint: unknown flag '%s'\n", argv[i]);
      PrintUsage();
      return 2;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) paths = skylint::DefaultFileSet(root);
  if (paths.empty()) {
    std::fprintf(stderr, "skylint: nothing to lint under '%s'\n", root.c_str());
    return 2;
  }

  std::vector<skylint::Violation> violations = skylint::LintTree(root, paths);
  if (!rule_filter.empty()) {
    violations.erase(std::remove_if(violations.begin(), violations.end(),
                                    [&](const skylint::Violation& v) {
                                      return rule_filter.count(v.rule) == 0;
                                    }),
                     violations.end());
  }

  std::set<std::string> dirty_files;
  std::map<std::string, size_t> by_rule;
  for (const skylint::Violation& v : violations) {
    std::printf("%s:%zu: %s: %s\n", v.path.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
    dirty_files.insert(v.path);
    ++by_rule[v.rule];
  }

  if (violations.empty()) {
    std::printf("skylint: 0 violations across %zu files\n", paths.size());
    return 0;
  }
  std::string breakdown;
  for (const auto& [rule, count] : by_rule) {
    if (!breakdown.empty()) breakdown += ", ";
    breakdown += rule + ": " + std::to_string(count);
  }
  std::printf("skylint: %zu violations across %zu files (%s)\n",
              violations.size(), dirty_files.size(), breakdown.c_str());
  return 1;
}
