// Fixed-width SIMD abstraction for the one vectorized epoch kernel.
//
// The thermal Euler substep (thermal/thermal_model.cpp) is written against
// `vdouble`, a fixed-lane pack of doubles. With ODRL_SIMD=ON (the default)
// and a GCC toolchain, vdouble is std::experimental::native_simd<double>;
// everywhere else (ODRL_SIMD=OFF, or a compiler without a working
// <experimental/simd>) it degrades to a one-lane struct with identical
// semantics, so the kernel compiles -- and produces bit-identical results
// -- in every configuration. The other hot-path kernels (batch power, the
// OD-RL TD pass, budget reallocation) are scalar: their hand-vectorized
// variants measured 0.8-1.2x of the scalar loops and were removed (see
// DESIGN.md "Vectorized kernels").
//
// Determinism contract: a vectorized kernel may only vectorize
// *elementwise* IEEE-754 arithmetic (+, -, *, /), which is bit-identical
// per lane to the scalar operation sequence. Transcendentals stay scalar
// per element, and every reduction is a scalar fold in canonical index
// order (ordered_sum) -- never a lane-order or thread-order dependent tree.
// That is what keeps the golden digests byte-stable across lane widths,
// thread counts and ODRL_SIMD ON/OFF.
//
// Alignment: all loads/stores are element_aligned (valid at any address),
// so the kernel reads its columns in place with no overalignment demands.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>

#if defined(ODRL_SIMD_ENABLED) && defined(__GNUC__) && !defined(__clang__) && \
    __has_include(<experimental/simd>)
#define ODRL_SIMD_NATIVE 1
#include <experimental/simd>
#endif

namespace odrl::util {

/// Test hook: force the vectorized kernel down its scalar path at runtime,
/// so one binary can compare the two variants bit for bit
/// (tests/simd_kernel_test.cpp). Not thread-safe against
/// concurrent kernel launches -- flip it only between epochs/tests.
void set_simd_force_scalar(bool force) noexcept;
bool simd_force_scalar() noexcept;

/// True when the library was compiled with the native SIMD path.
bool simd_compiled() noexcept;

/// Dispatch predicate of the vectorized kernel (ThermalModel::step): take
/// the vectorized path only when it was compiled in and tests have not
/// forced the scalar one.
bool simd_active() noexcept;

/// Canonical deterministic reduction: a sequential fold in index order,
/// starting from 0.0. A kernel that needs a sum materializes its terms into
/// a column and folds with this -- the summation tree is a pure function of
/// the element count, independent of lanes and threads.
inline double ordered_sum(std::span<const double> values) noexcept {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

#ifdef ODRL_SIMD_NATIVE

namespace stdx = std::experimental;

using vdouble = stdx::native_simd<double>;
inline constexpr std::size_t kSimdLanes = vdouble::size();

inline vdouble vload(const double* p) {
  return vdouble(p, stdx::element_aligned);
}
inline void vstore(double* p, const vdouble& v) {
  v.copy_to(p, stdx::element_aligned);
}

#else  // scalar fallback: one lane, same interface

/// One-lane stand-in for native_simd<double>: the kernel compiles (and runs
/// the exact scalar operation sequence) when the native path is absent.
struct vdouble {
  double lane = 0.0;

  vdouble() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  explicit(false) vdouble(double x) : lane(x) {}
  /// Generator constructor, mirroring std::experimental::simd: g is called
  /// with integral_constant<size_t, k> for each lane.
  template <typename G,
            typename = std::enable_if_t<std::is_invocable_v<
                G&, std::integral_constant<std::size_t, 0>>>>
  explicit vdouble(G&& g)
      : lane(std::forward<G>(g)(std::integral_constant<std::size_t, 0>{})) {}

  static constexpr std::size_t size() { return 1; }
  double operator[](std::size_t) const { return lane; }

  friend vdouble operator+(vdouble a, vdouble b) { return {a.lane + b.lane}; }
  friend vdouble operator-(vdouble a, vdouble b) { return {a.lane - b.lane}; }
  friend vdouble operator*(vdouble a, vdouble b) { return {a.lane * b.lane}; }
  friend vdouble operator/(vdouble a, vdouble b) { return {a.lane / b.lane}; }
};

inline constexpr std::size_t kSimdLanes = 1;

inline vdouble vload(const double* p) { return vdouble{*p}; }
inline void vstore(double* p, const vdouble& v) { *p = v.lane; }

#endif  // ODRL_SIMD_NATIVE

}  // namespace odrl::util
