// Lane-parallel log and sincos. See vmath.hpp for the accuracy and
// determinism contracts. This TU (and packet_kernel.cpp) is compiled once
// per PacketIsa with -O3 -ffp-contract=off plus that ISA's -m flags,
// scoped in CMakeLists.txt, into the namespace PHODIS_PACKET_ISA names;
// the loops are written as straight-line per-lane arithmetic with
// branchless selects so the auto-vectorizer turns each into a handful of
// vector ops. vsincos_2pi is the shared operator mc::sincos_2pi per lane.
//
// The log polynomial and reduction constants are the public-domain fdlibm
// ones (Sun Microsystems, via glibc/musl); re-derived coefficients would
// buy nothing and cost the known error bounds.
#include "mc/vmath.hpp"

#include <bit>
#include <cstdint>

#include "mc/physics.hpp"

#if !defined(PHODIS_PACKET_ISA)
// Built once per PacketIsa: PHODIS_PACKET_ISA names the build's namespace.
#error "PHODIS_PACKET_ISA is not defined (see CMakeLists.txt)"
#endif

namespace phodis::mc::PHODIS_PACKET_ISA {

namespace {

// log reduction/series constants (fdlibm e_log.c).
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;
constexpr double kSqrt2 = 1.41421356237309514547462185873883;  // 2^0.5, +1ulp

}  // namespace

void vlog(const double* x, double* out, std::size_t n) noexcept {
  // 2^52 + 2^51? No — plain 2^52: OR-ing the 11-bit biased exponent into
  // the mantissa of 2^52 yields exactly 2^52 + (e + 1023) (integers below
  // 2^53 are exact), so the exponent reaches double-land through bit ops
  // alone. An int64 -> double convert here has no AVX2 instruction and
  // makes gcc drop the whole loop to scalar ("no vectype").
  constexpr double kExpBias = 4503599627370496.0 + 1023.0;  // 2^52 + bias
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x[i]);
    const double e_biased =
        std::bit_cast<double>((bits >> 52) | 0x4330000000000000ULL);
    // Mantissa in [1, 2), then shifted to [sqrt2/2, sqrt2) so the series
    // argument f = m - 1 stays small on both sides of zero.
    double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFULL) |
                                     0x3FF0000000000000ULL);
    const bool shift = m > kSqrt2;
    m = shift ? 0.5 * m : m;
    // Exact small-integer arithmetic: identical bits to the old
    // static_cast<double>(int64 e) formulation.
    const double k = (shift ? e_biased + 1.0 : e_biased) - kExpBias;

    const double f = m - 1.0;
    const double s = f / (2.0 + f);
    const double z = s * s;
    const double w = z * z;
    const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const double r = t2 + t1;
    const double hfsq = 0.5 * f * f;
    out[i] = k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
  }
}

void vsincos_2pi(const double* u, double* sin_out, double* cos_out,
                 std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const SinCos phi = sincos_2pi(u[i]);
    sin_out[i] = phi.sin;
    cos_out[i] = phi.cos;
  }
}

}  // namespace phodis::mc::PHODIS_PACKET_ISA
