// Reaches for the benchmark-only forwarders instead of the operators.
#include "parallel/parallel_ops.h"

namespace demo {

int Answer() { return 42; }

}  // namespace demo
