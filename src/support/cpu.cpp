#include "support/cpu.hpp"

#include <atomic>
#include <cstdint>

#if defined(__x86_64__) && !defined(PAPC_DISABLE_SIMD)
#define PAPC_SIMD_X86 1
#include <cpuid.h>
#endif

namespace papc::support {
namespace {

/// Override slot: SimdLevel + 1, 0 = no override. One relaxed atomic —
/// the override is a coarse test/ops knob, not a synchronization point.
std::atomic<int> g_override{0};

#if defined(PAPC_SIMD_X86)
/// XGETBV(0): which register states the OS saves on context switch.
std::uint64_t xgetbv0() {
    std::uint32_t eax = 0;
    std::uint32_t edx = 0;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (static_cast<std::uint64_t>(edx) << 32U) | eax;
}

SimdLevel detect() {
    unsigned eax = 0;
    unsigned ebx = 0;
    unsigned ecx = 0;
    unsigned edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return SimdLevel::kScalar;
    const bool osxsave = (ecx & (1U << 27U)) != 0;
    const bool avx = (ecx & (1U << 28U)) != 0;
    if (!osxsave || !avx) return SimdLevel::kScalar;
    // XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
    if ((xgetbv0() & 0x6U) != 0x6U) return SimdLevel::kScalar;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
        return SimdLevel::kScalar;
    }
    const bool avx2 = (ebx & (1U << 5U)) != 0;
    return avx2 ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}
#else
SimdLevel detect() { return SimdLevel::kScalar; }
#endif

}  // namespace

const char* simd_level_name(SimdLevel level) {
    switch (level) {
        case SimdLevel::kAvx2:
            return "avx2";
        case SimdLevel::kScalar:
            break;
    }
    return "scalar";
}

SimdLevel detected_simd() {
    static const SimdLevel level = detect();
    return level;
}

SimdLevel active_simd() {
    const int override_slot = g_override.load(std::memory_order_relaxed);
    if (override_slot != 0) {
        const auto requested = static_cast<SimdLevel>(override_slot - 1);
        return requested <= detected_simd() ? requested : detected_simd();
    }
    return detected_simd();
}

void set_simd_override(SimdLevel level) {
    g_override.store(static_cast<int>(level) + 1, std::memory_order_relaxed);
}

void clear_simd_override() {
    g_override.store(0, std::memory_order_relaxed);
}

}  // namespace papc::support
