// papc_lint fixture (tree mode): the entry point that keeps the cycle's
// headers reachable (L3), so the tree trips only the rule under test.
#include "sync/census_view.hpp"

int main() { return 0; }
