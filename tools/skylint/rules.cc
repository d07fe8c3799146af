// Rule implementations for skylint. Everything here works on blanked code
// (comments/strings removed) produced by text.cc; see skylint.h for the
// rule catalogue.

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <utility>

#include "skylint.h"

namespace skylint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True when `text` contains `token` at a position not preceded/followed by
/// an identifier character (so `assert` does not match `static_assert`).
size_t FindToken(const std::string& text, const std::string& token, size_t from = 0) {
  size_t pos = text.find(token, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return pos;
    pos = text.find(token, pos + 1);
  }
  return std::string::npos;
}

bool IsCommentLine(const std::string& raw) {
  const size_t first = raw.find_first_not_of(" \t");
  return first != std::string::npos && raw.compare(first, 2, "//") == 0;
}

/// Rule suppression: `skylint:allow(rule)` on the finding's line or in the
/// contiguous comment block directly above it (so the tag can carry a
/// full-sentence justification), or `skylint:allow-file(rule)` anywhere in
/// the file.
bool Suppressed(const SourceFile& file, size_t line, const std::string& rule) {
  const std::string line_tag = "skylint:allow(" + rule + ")";
  if (line >= 1 && line <= file.raw.size() &&
      file.raw[line - 1].find(line_tag) != std::string::npos) {
    return true;
  }
  for (size_t above = line - 1;
       above >= 1 && above <= file.raw.size() && IsCommentLine(file.raw[above - 1]);
       --above) {
    if (file.raw[above - 1].find(line_tag) != std::string::npos) return true;
  }
  const std::string file_tag = "skylint:allow-file(" + rule + ")";
  for (const std::string& raw : file.raw) {
    if (raw.find(file_tag) != std::string::npos) return true;
  }
  return false;
}

void Report(const SourceFile& file, size_t line, const std::string& rule,
            const std::string& message, std::vector<Violation>* out) {
  if (Suppressed(file, line, rule)) return;
  out->push_back(Violation{file.path, line, rule, message});
}

// -------------------------------------------------------------------------
// discarded-status
// -------------------------------------------------------------------------

// Matches declarations/definitions returning Status or Result<...>:
//   [[nodiscard]] static Result<Foo> Name(
const std::regex kStatusDeclRe(
    R"((?:^|[;{}\s])(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+|inline\s+|friend\s+)*(?:Status|Result<[^;()]*>)\s+(?:\w+::)*(\w+)\s*\()");

// Matches declarations with any other single-token (possibly qualified /
// templated) return type, used to find names that are ambiguous at the
// token level: `void Insert(...)` vs `Status Insert(...)`.
const std::regex kOtherDeclRe(
    R"((?:^|[;{}\s])(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+|inline\s+|constexpr\s+|friend\s+)*((?:\w+::)*\w+(?:<[^;()]*>)?(?:\s*[*&])?)\s+(?:\w+::)*(\w+)\s*\()");

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",  "switch", "return", "sizeof",
      "case",   "new",    "delete", "else",   "do",     "catch",
      "static_assert", "alignof", "decltype", "co_return", "co_await",
      "co_yield", "throw", "goto", "using", "typedef", "template",
      "operator", "public", "private", "protected", "explicit",
  };
  return kw;
}

void ScanDeclarations(const SourceFile& file, std::set<std::string>* status_names,
                      std::set<std::string>* other_names) {
  for (const Statement& stmt : SplitStatements(file.code)) {
    std::smatch m;
    std::string::const_iterator begin = stmt.text.cbegin();
    while (std::regex_search(begin, stmt.text.cend(), m, kStatusDeclRe)) {
      status_names->insert(m[1].str());
      begin = m[0].second;
    }
    begin = stmt.text.cbegin();
    while (std::regex_search(begin, stmt.text.cend(), m, kOtherDeclRe)) {
      const std::string ret = m[1].str();
      const std::string name = m[2].str();
      if (!StartsWith(ret, "Status") && !StartsWith(ret, "Result<") &&
          Keywords().count(ret) == 0 && Keywords().count(name) == 0 &&
          ret != "return") {
        other_names->insert(name);
      }
      begin = m[0].second;
    }
  }
}

// A bare-call statement: `receiver.chain->Name(args);` with nothing before
// the chain and nothing after the closing paren. Assignments, returns,
// comparisons, macro wraps all fail this shape.
const std::regex kBareCallRe(
    R"(^(?:\(\s*void\s*\)\s*)?((?:\w+(?:\.|->|::))*)(\w+)\s*\(.*\)\s*;$)");

void CheckDiscardedStatus(const SourceFile& file, const StatusRegistry& registry,
                          std::vector<Violation>* out) {
  for (const Statement& stmt : SplitStatements(file.code)) {
    std::smatch m;
    if (!std::regex_match(stmt.text, m, kBareCallRe)) continue;
    if (stmt.text.find("(void)") == 0 || StartsWith(stmt.text, "( void )")) {
      continue;  // explicit discard is the sanctioned opt-out
    }
    const std::string name = m[2].str();
    if (Keywords().count(name) != 0) continue;
    if (!registry.Contains(name)) continue;
    Report(file, stmt.line, "discarded-status",
           "call to Status/Result-returning '" + name +
               "' used as a bare statement; handle the status, propagate it "
               "with SKYDIVER_RETURN_NOT_OK, or cast to (void) with a reason",
           out);
  }
}

// -------------------------------------------------------------------------
// layering
// -------------------------------------------------------------------------

/// First path component under src/ (empty when not under src/).
std::string SrcDir(const std::string& path) {
  if (!StartsWith(path, "src/")) return "";
  const size_t end = path.find('/', 4);
  if (end == std::string::npos) return "";
  return path.substr(4, end - 4);
}

const std::regex kProjectIncludeRe(R"|(^\s*#\s*include\s+"([^"]+)")|");
const std::regex kSystemIncludeRe(R"(^\s*#\s*include\s+<([^>]+)>)");

/// Include targets live inside string literals, which the blanking pass
/// erases. Extract them from the raw line, but only when the blanked line
/// still shows a `#` directive — a commented-out include has no directive
/// left after blanking and must not count.
bool IsDirectiveLine(const std::string& code_line) {
  const size_t first = code_line.find_first_not_of(" \t");
  return first != std::string::npos && code_line[first] == '#';
}

void CheckLayering(const SourceFile& file, std::vector<Violation>* out) {
  const std::string dir = SrcDir(file.path);
  const bool in_src = StartsWith(file.path, "src/");
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (!IsDirectiveLine(file.code[i])) continue;
    std::smatch m;
    std::string target;
    if (std::regex_search(file.raw[i], m, kProjectIncludeRe)) {
      target = m[1].str();
    } else if (std::regex_search(file.raw[i], m, kSystemIncludeRe)) {
      // Only test-framework headers are restricted among <> includes.
      const std::string sys = m[1].str();
      if (in_src && (StartsWith(sys, "gtest/") || StartsWith(sys, "gmock/") ||
                     StartsWith(sys, "catch2/"))) {
        Report(file, i + 1, "layering",
               "test-framework include <" + sys + "> inside src/", out);
      }
      continue;
    } else {
      continue;
    }

    const std::string inc_dir = target.substr(0, target.find('/'));
    if (dir == "common" && inc_dir != "common") {
      Report(file, i + 1, "layering",
             "src/common is the bottom layer and may only include common/ "
             "headers (found \"" + target + "\")",
             out);
    } else if ((dir == "core" || dir == "kernels") &&
               inc_dir != "common" && inc_dir != "core" && inc_dir != "kernels") {
      Report(file, i + 1, "layering",
             "src/" + dir + " may only include common/, core/ and kernels/ "
             "headers (found \"" + target + "\")",
             out);
    } else if (in_src && dir != "engine" && dir != "skydiver" && dir != "serve" &&
               (inc_dir == "engine" || inc_dir == "skydiver")) {
      Report(file, i + 1, "layering",
             "src/" + dir + " may not include " + inc_dir +
                 "/ headers (library layers below the engine must not "
                 "depend on it)",
             out);
    } else if (in_src && dir != "serve" && inc_dir == "serve") {
      Report(file, i + 1, "layering",
             "src/" + dir + " may not include serve/ headers (the serving "
             "layer sits on top of the engine; nothing in src/ depends on it)",
             out);
    }
  }
}

// -------------------------------------------------------------------------
// perfbench-only
// -------------------------------------------------------------------------

// parallel/parallel_ops.h holds one-line forwarders under the names the
// end-to-end benchmark calls, kept so that perfbench/main.cc stays fixed
// across commits. Every other file calls the operators themselves (each
// takes a ThreadPool*), so the old twin names never spread again.
void CheckPerfbenchOnly(const SourceFile& file, std::vector<Violation>* out) {
  if (StartsWith(file.path, "perfbench/")) return;
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (!IsDirectiveLine(file.code[i])) continue;
    std::smatch m;
    if (std::regex_search(file.raw[i], m, kProjectIncludeRe) &&
        m[1].str() == "parallel/parallel_ops.h") {
      Report(file, i + 1, "perfbench-only",
             "parallel/parallel_ops.h exists only for perfbench; call "
             "SkylineSFS / SigGenIF / SelectDiverseSet with a ThreadPool*",
             out);
    }
  }
}

// -------------------------------------------------------------------------
// shared-state
// -------------------------------------------------------------------------

// The snapshot/serving layers' thread-safety story is "immutable after
// publication": a SkySnapshot is shared by reference across query threads,
// so any mutable escape hatch must be a synchronization primitive. Two
// shapes are banned in src/engine/ and src/serve/:
//   * non-const namespace/class statics (shared across every query with no
//     owner — `static constexpr` / `static const` data and static member
//     FUNCTIONS stay fine);
//   * `mutable` members whose declaration is not a std::atomic / mutex /
//     shared_mutex / once_flag / condition_variable (a mutable counter in
//     a const-shared object is a data race waiting for a second client).

bool SharedStateScoped(const std::string& path) {
  return StartsWith(path, "src/engine/") || StartsWith(path, "src/serve/");
}

bool HasSyncPrimitive(const std::string& text) {
  static const std::vector<std::string> kSync = {
      "atomic", "mutex", "shared_mutex", "once_flag", "condition_variable",
      // The project's annotated wrappers (common/mutex.h) — what mutable
      // members in src/ should actually be declared as.
      "Mutex", "SharedMutex", "CondVar",
  };
  for (const std::string& token : kSync) {
    if (FindToken(text, token) != std::string::npos) return true;
  }
  return false;
}

void CheckSharedState(const SourceFile& file, std::vector<Violation>* out) {
  if (!SharedStateScoped(file.path)) return;
  for (const Statement& stmt : SplitStatements(file.code)) {
    if (FindToken(stmt.text, "static") != std::string::npos &&
        stmt.text.find('(') == std::string::npos &&
        FindToken(stmt.text, "const") == std::string::npos &&
        FindToken(stmt.text, "constexpr") == std::string::npos) {
      Report(file, stmt.line, "shared-state",
             "mutable static in the snapshot/serving layer; engine state "
             "shared across query threads must be constant or live behind "
             "a synchronization primitive",
             out);
    }
    if (FindToken(stmt.text, "mutable") != std::string::npos &&
        !HasSyncPrimitive(stmt.text)) {
      Report(file, stmt.line, "shared-state",
             "non-atomic mutable member in the snapshot/serving layer; "
             "objects here are shared const across query threads, so "
             "mutable state must be a std::atomic / mutex / once_flag",
             out);
    }
  }
}

// -------------------------------------------------------------------------
// determinism
// -------------------------------------------------------------------------

bool DeterminismExempt(const std::string& path) {
  return StartsWith(path, "src/parallel/") ||
         StartsWith(path, "src/common/rng.");
}

const std::regex kArglessTimeRe(R"((^|[^\w.:>])time\s*\(\s*(NULL|nullptr|0)?\s*\))");
const std::regex kRandCallRe(R"((^|[^\w.:>])s?rand\s*\()");

void CheckDeterminism(const SourceFile& file, std::vector<Violation>* out) {
  if (DeterminismExempt(file.path)) return;
  static const std::vector<std::pair<std::string, std::string>> kBanned = {
      {"std::thread", "spawn threads through parallel/ThreadPool"},
      {"std::jthread", "spawn threads through parallel/ThreadPool"},
      {"std::mt19937", "draw randomness through common/Rng with an explicit seed"},
      {"std::mt19937_64", "draw randomness through common/Rng with an explicit seed"},
      {"std::random_device", "nondeterministic seeds break experiment reproducibility"},
      {"std::default_random_engine", "draw randomness through common/Rng"},
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (const auto& [token, why] : kBanned) {
      if (FindToken(line, token) != std::string::npos) {
        Report(file, i + 1, "determinism", token + " outside src/parallel/: " + why,
               out);
      }
    }
    std::smatch m;
    if (std::regex_search(line, m, kRandCallRe)) {
      Report(file, i + 1, "determinism",
             "rand()/srand() is global, unseeded state; use common/Rng", out);
    }
    if (std::regex_search(line, m, kArglessTimeRe)) {
      Report(file, i + 1, "determinism",
             "wall-clock time() as a value feeds nondeterminism into "
             "experiments; plumb an explicit seed or timestamp",
             out);
    }
  }
}

// -------------------------------------------------------------------------
// assert
// -------------------------------------------------------------------------

void CheckAssert(const SourceFile& file, std::vector<Violation>* out) {
  if (file.path == "src/common/check.h") return;  // the one sanctioned home
  for (size_t i = 0; i < file.code.size(); ++i) {
    size_t pos = FindToken(file.code[i], "assert");
    while (pos != std::string::npos) {
      // Must be a call: next non-space is '('.
      size_t j = pos + 6;
      while (j < file.code[i].size() && file.code[i][j] == ' ') ++j;
      if (j < file.code[i].size() && file.code[i][j] == '(') {
        Report(file, i + 1, "assert",
               "bare assert() is silent about what broke and vanishes under "
               "NDEBUG; use SKYDIVER_CHECK / SKYDIVER_DCHECK from "
               "common/check.h",
               out);
        break;  // one report per line is enough
      }
      pos = FindToken(file.code[i], "assert", pos + 1);
    }
  }
}

// -------------------------------------------------------------------------
// intrinsics
// -------------------------------------------------------------------------

// Vendor intrinsics headers are confined to src/kernels/: every other layer
// must stay ISA-agnostic and reach vector code only through the DomKernel
// dispatch, so a single directory owns the per-ISA compile flags and the
// runtime-probe discipline (no AVX2 instructions outside TUs built with
// -mavx2).
bool IsIntrinsicsHeader(const std::string& header) {
  static const std::set<std::string> kExact = {
      "immintrin.h", "x86intrin.h", "arm_neon.h", "arm_sve.h",
      "emmintrin.h", "smmintrin.h", "avxintrin.h", "avx2intrin.h",
  };
  if (kExact.count(header) != 0) return true;
  return EndsWith(header, "mmintrin.h");
}

void CheckIntrinsics(const SourceFile& file, std::vector<Violation>* out) {
  if (StartsWith(file.path, "src/kernels/")) return;  // the sanctioned home
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (!IsDirectiveLine(file.code[i])) continue;
    std::smatch m;
    std::string target;
    if (std::regex_search(file.raw[i], m, kSystemIncludeRe)) {
      target = m[1].str();
    } else if (std::regex_search(file.raw[i], m, kProjectIncludeRe)) {
      target = m[1].str();
    } else {
      continue;
    }
    if (IsIntrinsicsHeader(target)) {
      Report(file, i + 1, "intrinsics",
             "intrinsics header <" + target +
                 "> outside src/kernels/; vector code is confined to the "
                 "kernel layer — go through the DomKernel dispatch instead",
             out);
    }
  }
}

// -------------------------------------------------------------------------
// view-loops
// -------------------------------------------------------------------------

// Skyline algorithms take their dimensionality from a query-scoped
// DataView (view.dims() / view.proj()), never from the raw DataSet: a
// direct `data.dims()` loop silently ignores the query's projection mask.
// Token-level like everything here — `view.data().dims()` (reading the
// FULL dimensionality through the view, e.g. to validate an R-tree) does
// not match, because the member access interposes a call.
void CheckViewLoops(const SourceFile& file, std::vector<Violation>* out) {
  if (!StartsWith(file.path, "src/skyline/")) return;
  static const char* const kPatterns[] = {"data.dims()", "data_.dims()",
                                          "data->dims()"};
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (const char* pattern : kPatterns) {
      for (size_t pos = line.find(pattern); pos != std::string::npos;
           pos = line.find(pattern, pos + 1)) {
        if (pos != 0 && IsIdentChar(line[pos - 1])) continue;
        Report(file, i + 1, "view-loops",
               "skyline code must read dimensionality through a DataView "
               "(view.dims()/view.proj()); a raw DataSet dimension loop "
               "ignores the query's projection mask",
               out);
        break;
      }
    }
  }
}

// -------------------------------------------------------------------------
// include-hygiene
// -------------------------------------------------------------------------

void CheckIncludeHygiene(const SourceFile& file, const LintContext& context,
                         std::vector<Violation>* out) {
  const bool is_header = EndsWith(file.path, ".h") || EndsWith(file.path, ".hpp");
  if (is_header) {
    bool has_pragma = false;
    for (const std::string& line : file.code) {
      if (line.find("#pragma once") != std::string::npos) {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      Report(file, 1, "include-hygiene", "header is missing #pragma once", out);
    }
  }

  // "../" escapes the include-root discipline (-I src with full paths).
  for (size_t i = 0; i < file.code.size(); ++i) {
    std::smatch m;
    if (IsDirectiveLine(file.code[i]) &&
        std::regex_search(file.raw[i], m, kProjectIncludeRe) &&
        m[1].str().find("../") != std::string::npos) {
      Report(file, i + 1, "include-hygiene",
             "relative \"../\" include; use a root-relative path", out);
    }
  }

  // foo.cc with a sibling foo.h must include that header first: the
  // cheap, compiler-backed way to keep headers self-contained.
  if (EndsWith(file.path, ".cc") || EndsWith(file.path, ".cpp")) {
    const size_t slash = file.path.rfind('/');
    const size_t dot = file.path.rfind('.');
    const std::string stem = file.path.substr(slash + 1, dot - slash - 1);
    const std::string sibling = file.path.substr(0, dot) + ".h";
    if (!context.HasFile(sibling)) return;
    std::string first_include;
    size_t first_line = 0;
    for (size_t i = 0; i < file.code.size() && first_include.empty(); ++i) {
      if (!IsDirectiveLine(file.code[i])) continue;
      std::smatch m;
      if (std::regex_search(file.raw[i], m, kProjectIncludeRe)) {
        first_include = m[1].str();
        first_line = i + 1;
      } else if (std::regex_search(file.raw[i], m, kSystemIncludeRe)) {
        // Appended piecewise: GCC 12 raises a false -Werror=restrict on the
        // std::string::insert that "<" + str inlines in Release builds.
        std::string s = "<";
        s += m[1].str();
        s += '>';
        first_include = std::move(s);
        first_line = i + 1;
      }
    }
    if (!first_include.empty() && !EndsWith(first_include, "/" + stem + ".h") &&
        first_include != stem + ".h") {
      Report(file, first_line, "include-hygiene",
             "a .cc file should include its own header first to prove the "
             "header is self-contained (first include is \"" +
                 first_include + "\")",
             out);
    }
  }
}

// -------------------------------------------------------------------------
// pin-discipline
// -------------------------------------------------------------------------

// DiskRTree::ReadNode hands out a pinned PageRef whose frame becomes
// evictable the moment the ref dies. Binding a node reference straight to
// the call —
//     const RTreeNode& node = tree.ReadNode(id);      // or auto&
// — compiles fine against the in-memory RTree but is a use-after-evict
// against the disk tree: the temporary ref (and its pin) dies at the end
// of the full-expression and the reference dangles into the cache. Code
// generic over both backends must name the ref first and borrow through
// it (rtree/page_cache.h documents the protocol):
//     decltype(auto) ref = tree.ReadNode(id);
//     if (!RefOk(ref)) return RefStatus(ref);
//     const RTreeNode& node = NodeOf(ref);
// RTree-only sites where the reference provably targets the stable
// in-memory store may carry a skylint:allow(pin-discipline) tag saying so.

const std::regex kNodeRefLhsRe(R"((RTreeNode|auto)\s*&)");

void CheckPinDiscipline(const SourceFile& file, std::vector<Violation>* out) {
  if (!StartsWith(file.path, "src/")) return;
  for (const Statement& stmt : SplitStatements(file.code)) {
    const size_t call = FindToken(stmt.text, "ReadNode");
    if (call == std::string::npos) continue;
    const size_t eq = stmt.text.find('=');
    if (eq == std::string::npos || eq > call) continue;  // decl/defn, no init
    const std::string lhs = stmt.text.substr(0, eq);
    if (!std::regex_search(lhs, kNodeRefLhsRe)) continue;
    Report(file, stmt.line, "pin-discipline",
           "node reference bound directly to ReadNode(); the pin dies with "
           "the temporary and the reference dangles into the page cache on "
           "the disk backend — name the ref, check RefOk, then borrow via "
           "NodeOf (see rtree/page_cache.h)",
           out);
  }
}

// -------------------------------------------------------------------------
// guarded-mutex / lock-discipline / relaxed-ordering
// -------------------------------------------------------------------------

// The concurrency rules are the token-level backstop for Clang Thread
// Safety Analysis (common/thread_annotations.h): TSA only checks what is
// annotated, so these rules make sure the raw std primitives that TSA
// cannot see never appear in src/ in the first place. common/mutex.h is
// the one sanctioned home of the underlying std types.

bool ConcurrencyScoped(const std::string& path) {
  return StartsWith(path, "src/") && path != "src/common/mutex.h";
}

void CheckGuardedMutex(const SourceFile& file, std::vector<Violation>* out) {
  if (!ConcurrencyScoped(file.path)) return;
  // Raw std synchronization types defeat the thread-safety analysis (they
  // carry no capability annotations); the wrappers in common/mutex.h are
  // the sanctioned spelling.
  static const std::vector<std::string> kRawPrimitives = {
      "std::mutex",          "std::timed_mutex",
      "std::recursive_mutex", "std::recursive_timed_mutex",
      "std::shared_mutex",   "std::shared_timed_mutex",
      "std::condition_variable", "std::condition_variable_any",
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    for (const std::string& token : kRawPrimitives) {
      if (FindToken(file.code[i], token) != std::string::npos) {
        Report(file, i + 1, "guarded-mutex",
               token + " is invisible to thread-safety analysis; use the "
               "annotated wrappers in common/mutex.h (Mutex, SharedMutex, "
               "CondVar, MutexLock)",
               out);
        break;  // one report per line is enough
      }
    }
  }
  // A `mutable` member is cross-thread mutable state in any const-shared
  // object: it must be a synchronization primitive, an atomic, or carry a
  // GUARDED_BY annotation naming the lock that protects it. (Checked only
  // when `mutable` opens the statement, so `mutable` lambdas never match.)
  for (const Statement& stmt : SplitStatements(file.code)) {
    if (!StartsWith(stmt.text, "mutable") ||
        (stmt.text.size() > 7 && IsIdentChar(stmt.text[7]))) {
      continue;
    }
    if (HasSyncPrimitive(stmt.text) ||
        stmt.text.find("SKYDIVER_GUARDED_BY") != std::string::npos ||
        stmt.text.find("SKYDIVER_PT_GUARDED_BY") != std::string::npos) {
      continue;
    }
    Report(file, stmt.line, "guarded-mutex",
           "mutable member is neither a synchronization primitive nor "
           "SKYDIVER_GUARDED_BY an annotated lock; tie it to its capability "
           "or tag the line with the reason it needs no guard",
           out);
  }
}

void CheckLockDiscipline(const SourceFile& file, std::vector<Violation>* out) {
  if (!ConcurrencyScoped(file.path)) return;
  // Naked acquire/release calls can leak a lock on any early return or
  // exception, and hand-unlocked sections are exactly the holes TSA's
  // scoped-capability checking cannot vouch for. RAII guards only.
  static const char* const kNakedCalls[] = {
      ".lock(",  "->lock(",  ".unlock(",  "->unlock(",
      ".Lock(",  "->Lock(",  ".Unlock(",  "->Unlock(",
  };
  // The std RAII guards are banned alongside: they manage a raw std::mutex
  // and carry no scoped-capability annotation.
  static const std::vector<std::string> kRawGuards = {
      "std::lock_guard", "std::unique_lock", "std::scoped_lock",
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    bool reported = false;
    for (const char* pattern : kNakedCalls) {
      if (line.find(pattern) != std::string::npos) {
        Report(file, i + 1, "lock-discipline",
               std::string("naked '") + pattern +
                   ")' call; critical sections use the RAII guards from "
                   "common/mutex.h (MutexLock, ReaderMutexLock, "
                   "WriterMutexLock) so no path can leak the lock",
               out);
        reported = true;
        break;
      }
    }
    if (reported) continue;
    for (const std::string& token : kRawGuards) {
      if (FindToken(line, token) != std::string::npos) {
        Report(file, i + 1, "lock-discipline",
               token + " guards a raw std::mutex the thread-safety analysis "
               "cannot track; use MutexLock / ReaderMutexLock / "
               "WriterMutexLock from common/mutex.h",
               out);
        break;
      }
    }
  }
}

void CheckThreadIdReduction(const SourceFile& file, std::vector<Violation>* out) {
  if (!ConcurrencyScoped(file.path)) return;
  // Thread identity is a scheduling accident. State indexed by it (a
  // this_thread::get_id()-keyed accumulator map, a pthread_self() slot
  // picker) folds reductions in whatever order the OS ran the threads —
  // the exact nondeterminism the morsel protocol exists to kill. Index
  // reduction slots by morsel/claim id instead (parallel/morsel.h;
  // DESIGN.md §10 explains why thread-id accumulation is banned).
  static const char* const kIdentityCalls[] = {
      "this_thread::get_id",
      "pthread_self",
  };
  for (size_t i = 0; i < file.code.size(); ++i) {
    for (const char* pattern : kIdentityCalls) {
      const size_t pos = file.code[i].find(pattern);
      if (pos == std::string::npos) continue;
      if (pos != 0 && IsIdentChar(file.code[i][pos - 1])) continue;
      Report(file, i + 1, "thread-id-reduction",
             std::string(pattern) +
                 " reads thread identity, which is a scheduling accident; "
                 "accumulate into slots indexed by morsel/claim id "
                 "(parallel/morsel.h) so reductions fold deterministically",
             out);
      break;  // one report per line is enough
    }
  }
}

void CheckRelaxedOrdering(const SourceFile& file, std::vector<Violation>* out) {
  if (!ConcurrencyScoped(file.path)) return;
  // memory_order_relaxed is correct only when some OTHER mechanism carries
  // the ordering (a mutex, a fence protocol). Every site must say which,
  // via a skylint:allow(relaxed-ordering) tag citing the protocol doc —
  // the report below is what forces the tag to exist.
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (FindToken(file.code[i], "memory_order_relaxed") != std::string::npos) {
      Report(file, i + 1, "relaxed-ordering",
             "memory_order_relaxed without a skylint:allow(relaxed-ordering) "
             "tag; cite the protocol that carries the ordering this atomic "
             "gives up (e.g. the ThreadPool harvest contract)",
             out);
    }
  }
}

}  // namespace

const std::vector<std::string>& KnownRules() {
  static const std::vector<std::string> kRules = {
      "assert",           "determinism",     "discarded-status",
      "guarded-mutex",    "include-hygiene", "intrinsics",
      "layering",         "lock-discipline", "perfbench-only",
      "pin-discipline",   "relaxed-ordering", "shared-state",
      "thread-id-reduction", "view-loops",
  };
  return kRules;
}

bool StatusRegistry::Contains(const std::string& name) const {
  return std::binary_search(names.begin(), names.end(), name);
}

StatusRegistry BuildStatusRegistry(const std::vector<SourceFile>& files) {
  std::set<std::string> status_names;
  std::set<std::string> other_names;
  for (const SourceFile& file : files) {
    ScanDeclarations(file, &status_names, &other_names);
  }
  StatusRegistry registry;
  for (const std::string& name : status_names) {
    // Names also declared with a non-Status return type are ambiguous for
    // a token-level tool (e.g. RTree::Insert returns void while
    // StreamingSkyline::Insert returns Status); the compiler's
    // [[nodiscard]] enforcement covers those precisely.
    if (other_names.count(name) == 0) registry.names.push_back(name);
  }
  return registry;
}

bool LintContext::HasFile(const std::string& path) const {
  return std::binary_search(paths.begin(), paths.end(), path);
}

void LintFile(const SourceFile& file, const LintContext& context,
              std::vector<Violation>* out) {
  CheckDiscardedStatus(file, context.registry, out);
  CheckLayering(file, out);
  CheckPerfbenchOnly(file, out);
  CheckSharedState(file, out);
  CheckDeterminism(file, out);
  CheckAssert(file, out);
  CheckIntrinsics(file, out);
  CheckViewLoops(file, out);
  CheckIncludeHygiene(file, context, out);
  CheckPinDiscipline(file, out);
  CheckGuardedMutex(file, out);
  CheckLockDiscipline(file, out);
  CheckRelaxedOrdering(file, out);
  CheckThreadIdReduction(file, out);
}

}  // namespace skylint
