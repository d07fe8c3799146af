// Tree walking and orchestration for skylint.

#include "skylint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace skylint {

namespace fs = std::filesystem;

namespace {

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

SourceFile LoadFile(const std::string& root, const std::string& rel) {
  SourceFile file;
  file.path = rel;
  std::ifstream in(fs::path(root) / rel);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    file.raw.push_back(line);
  }
  file.code = StripCommentsAndStrings(file.raw);
  return file;
}

}  // namespace

std::vector<std::string> DefaultFileSet(const std::string& root) {
  std::vector<std::string> out;
  for (const char* top : {"src", "tools", "bench", "tests", "examples"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !HasLintableExtension(entry.path())) continue;
      const std::string rel =
          fs::relative(entry.path(), fs::path(root)).generic_string();
      // Fixtures are deliberately bad code exercised by the self-tests.
      if (rel.rfind("tests/skylint_fixtures/", 0) == 0) continue;
      out.push_back(rel);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Violation> LintTree(const std::string& root,
                                const std::vector<std::string>& paths) {
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& rel : paths) files.push_back(LoadFile(root, rel));

  LintContext context;
  context.registry = BuildStatusRegistry(files);
  context.paths = paths;
  std::sort(context.paths.begin(), context.paths.end());

  std::vector<Violation> violations;
  for (const SourceFile& file : files) LintFile(file, context, &violations);
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return violations;
}

}  // namespace skylint
