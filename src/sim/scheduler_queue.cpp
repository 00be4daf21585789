#include "sim/scheduler_queue.hpp"

#include "support/check.hpp"

namespace papc::sim {

// The queue templates are header-only; instantiate every implementation
// once for build-error surfacing and to anchor the target's source list.
template class BinaryHeapQueue<int>;
template class CalendarQueue<int>;
template class LadderQueue<int>;

const char* to_string(QueueKind kind) {
    switch (kind) {
        case QueueKind::kBinaryHeap:
            return "heap";
        case QueueKind::kCalendar:
            return "calendar";
        case QueueKind::kLadder:
            return "ladder";
    }
    PAPC_CHECK(false);
}

std::optional<QueueKind> try_parse_queue_kind(const std::string& name) {
    if (name == "heap" || name == "binary-heap") {
        return QueueKind::kBinaryHeap;
    }
    if (name == "calendar") {
        return QueueKind::kCalendar;
    }
    if (name == "ladder") {
        return QueueKind::kLadder;
    }
    return std::nullopt;
}

}  // namespace papc::sim
