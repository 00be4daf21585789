// papc-lint: allow(L3): fixture — pins the inline suppression of L3
#pragma once

namespace papc::support {
inline int justified() { return 3; }
}  // namespace papc::support
