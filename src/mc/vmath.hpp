// Vectorizable transcendentals for the packet kernel (KernelMode::kPacket).
//
// The packet kernel marches kPacketWidth photons in SoA lanes, so it
// evaluates its per-event transcendentals lane-parallel: plain loops over
// fixed-width arrays that gcc auto-vectorizes at -O3 with the relaxed-FP
// flags scoped to vmath.cpp / packet_kernel.cpp (see CMakeLists.txt). No
// intrinsics: the data layout does the work, and the same source is built
// once per PacketIsa (packet_kernel.hpp), today an AVX2 and an AVX-512
// build, each into its own namespace below.
//
// Accuracy contract (verified by tests/test_packet_kernel.cpp):
//  * vlog:        fdlibm-style argument reduction + degree-7 series in
//                 s = (m-1)/(m+1). Max error <= 4 ulp vs std::log over
//                 (0, 1] (measured ~1 ulp); callers feed it exponential
//                 step sampling, where 1e-15 relative error is ~9 orders
//                 below the Monte Carlo noise floor. The scalar loop keeps
//                 glibc's log.
//  * vsincos_2pi: mc::sincos_2pi (mc/physics.hpp) per lane, the azimuth
//                 operator the scalar loop calls once per interaction:
//                 sin/cos of 2*pi*u for u in [0, 1) within 2^-50 absolute
//                 (measured ~2e-16). Near the zeros of sin/cos the
//                 *relative* error is unbounded, which is irrelevant for
//                 sampling azimuthal directions. Every build returns the
//                 scalar operator's bits.
//
// Determinism contract: every polynomial is fixed-order Horner and the
// TUs are built with -ffp-contract=off, so results are identical IEEE
// doubles whether the loop was vectorized (at either ISA's register
// width), unrolled, or run under a sanitizer: the packet golden hashes
// hold across the whole build matrix and across ISA builds.
#pragma once

#include <cstddef>

namespace phodis::mc {

/// Photons marched per packet: 8 doubles = one AVX-512 register or two
/// AVX2 registers. Part of the packet-mode golden contract (changing it
/// changes lane sub-stream layout and refill order), so every ISA build
/// marches the same 8 lanes.
inline constexpr std::size_t kPacketWidth = 8;

// Each ISA build of vmath.cpp defines the pair below in its namespace:
//
// vlog: out[i] = log(x[i]) for x[i] in (0, 1] (no subnormal/zero/negative
//   handling: the caller feeds uniform_open0() draws, which are >= 2^-53).
//
// vsincos_2pi: sin_out[i] = sin(2*pi*u[i]), cos_out[i] = cos(2*pi*u[i])
//   for u in [0, 1), as mc::sincos_2pi(u[i]) returns them.

namespace isa_avx2 {
void vlog(const double* x, double* out, std::size_t n) noexcept;
void vsincos_2pi(const double* u, double* sin_out, double* cos_out,
                 std::size_t n) noexcept;
}  // namespace isa_avx2

namespace isa_avx512 {
void vlog(const double* x, double* out, std::size_t n) noexcept;
void vsincos_2pi(const double* u, double* sin_out, double* cos_out,
                 std::size_t n) noexcept;
}  // namespace isa_avx512

}  // namespace phodis::mc
