// skylint — SkyDiver's project-specific static analysis.
//
// A deliberately small, dependency-free (token/line-level, no libclang)
// linter that machine-checks the conventions the library's correctness
// story leans on:
//
//   discarded-status   A call to a Status/Result-returning function used as
//                      a bare statement. The compiler enforces this through
//                      [[nodiscard]] + -Werror; skylint is the backstop for
//                      builds with warnings off, and documents the rule.
//   layering           src/common and src/core must not reach up into
//                      engine/ or skydiver/; src/kernels may include
//                      nothing above core; only src/serve (the serving
//                      layer atop the engine) may also include engine/ and
//                      skydiver/ headers, and nothing in src/ may include
//                      serve/; no test-framework includes anywhere under
//                      src/.
//   shared-state       In src/engine/ and src/serve/ — the layers whose
//                      objects (SkySnapshot, Runtime, SkyServer) are shared
//                      by reference across query threads — no mutable
//                      non-const statics and no `mutable` members that are
//                      not a std::atomic / mutex / once_flag: the
//                      concurrent-serving guarantee is "immutable after
//                      publication", and a mutable counter in a const
//                      object is a data race waiting for a second client.
//   determinism        No raw std::thread / std::mt19937 / rand() /
//                      argless time() outside src/parallel/ and
//                      src/common/rng.* — the paper's experiments are
//                      reproducible because every random draw goes through
//                      the seeded Rng and every thread through ThreadPool.
//   assert             No bare assert( outside src/common/check.h; invariants
//                      go through SKYDIVER_CHECK / SKYDIVER_DCHECK, which
//                      log what broke before aborting.
//   intrinsics         Vendor intrinsics headers (immintrin.h, arm_neon.h,
//                      ...) only under src/kernels/ — vector code is
//                      confined to the kernel layer, which owns the per-ISA
//                      compile flags and the runtime CPU probe; everything
//                      else goes through the DomKernel dispatch.
//   view-loops         In src/skyline/ — every skyline algorithm computes
//                      over a query-scoped DataView, so dimensionality is
//                      read through view.dims()/view.proj(); a raw
//                      data.dims() loop would silently ignore the query's
//                      projection mask. (view.data().dims() — the FULL
//                      dimensionality, e.g. for R-tree validation — is
//                      fine and does not match.)
//   include-hygiene    Headers carry #pragma once; a foo.cc with a sibling
//                      foo.h includes it first (keeps headers
//                      self-contained); no "../" relative includes.
//   guarded-mutex      In src/ (common/mutex.h excepted, the one sanctioned
//                      home of the std primitives): no raw std::mutex /
//                      shared_mutex / condition_variable — they are
//                      invisible to Clang Thread Safety Analysis; and every
//                      `mutable` member must be a synchronization primitive
//                      or carry SKYDIVER_GUARDED_BY naming its lock.
//   lock-discipline    No naked .lock()/.unlock() (or .Lock()/.Unlock())
//                      calls and no std::lock_guard/unique_lock/scoped_lock
//                      in src/: critical sections go through the annotated
//                      RAII guards (MutexLock & co in common/mutex.h) so no
//                      path can leak a lock.
//   relaxed-ordering   Every memory_order_relaxed site in src/ must carry a
//                      skylint:allow(relaxed-ordering) tag citing the
//                      protocol that carries the ordering the atomic gives
//                      up (e.g. the ThreadPool harvest contract).
//   pin-discipline     In src/: never bind a node reference (RTreeNode& /
//                      auto&) directly to a ReadNode() call. On the disk
//                      backend ReadNode returns a pinned PageRef; binding
//                      through the temporary drops the pin at the end of
//                      the full-expression and the reference dangles into
//                      an evictable cache frame. Name the ref, check
//                      RefOk, borrow via NodeOf (rtree/page_cache.h);
//                      provably in-memory-only sites tag the line.
//   perfbench-only     Nothing outside perfbench/ includes
//                      parallel/parallel_ops.h: its forwarders keep the
//                      names the end-to-end benchmark calls; everything
//                      else calls the operators, which take a ThreadPool*.
//
// Suppressions: a comment containing `skylint:allow(<rule-id>)` silences
// that rule on its line or, when placed in the contiguous comment block
// directly above, on the finding below it; `skylint:allow-file(<rule-id>)`
// anywhere in a file silences the rule for the whole file. Violations print
// `file:line: rule-id: message` and the process exits nonzero.

#pragma once

#include <string>
#include <vector>

namespace skylint {

/// One finding. `path` is relative to the linted root.
struct Violation {
  std::string path;
  size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// A source file prepared for analysis.
struct SourceFile {
  std::string path;                // relative to root, '/'-separated
  std::vector<std::string> raw;    // original lines
  std::vector<std::string> code;   // comments and string literals blanked
};

/// Blanks comments, string and character literals (preserving line
/// structure and column positions) so token rules never fire inside text.
std::vector<std::string> StripCommentsAndStrings(const std::vector<std::string>& lines);

/// Splits blanked code into statements (text between `;`, `{`, `}`),
/// remembering each statement's 1-based starting line.
struct Statement {
  std::string text;
  size_t line = 0;
};
std::vector<Statement> SplitStatements(const std::vector<std::string>& code);

/// Names of functions declared to return Status/Result<T> somewhere in the
/// tree, minus names that are also declared with a different return type
/// (a token-level linter cannot resolve overloads across receiver types).
struct StatusRegistry {
  std::vector<std::string> names;  // sorted, deduplicated
  bool Contains(const std::string& name) const;
};

/// Scans every file for function declarations and builds the registry.
StatusRegistry BuildStatusRegistry(const std::vector<SourceFile>& files);

/// Whole-tree context the per-file rules consult: the Status registry and
/// the set of linted paths (for sibling-header existence checks).
struct LintContext {
  StatusRegistry registry;
  std::vector<std::string> paths;  // sorted, root-relative
  bool HasFile(const std::string& path) const;
};

/// Sorted list of every rule id the linter implements (what `--rules`
/// validates against).
const std::vector<std::string>& KnownRules();

/// Runs every rule over `file`, appending findings to `out`.
void LintFile(const SourceFile& file, const LintContext& context,
              std::vector<Violation>* out);

/// Loads + lints all of `paths` (relative to `root`). Returns findings
/// sorted by path and line.
std::vector<Violation> LintTree(const std::string& root,
                                const std::vector<std::string>& paths);

/// Lists the .cc/.h/.cpp files under root's src/, tools/, bench/, tests/
/// (skipping tests/skylint_fixtures — fixtures are deliberately bad).
std::vector<std::string> DefaultFileSet(const std::string& root);

}  // namespace skylint
