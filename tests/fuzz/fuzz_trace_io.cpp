// libFuzzer driver for the binary workload-trace loader (ODRL_FUZZ builds).
#include <cstddef>
#include <cstdint>

#include "harness.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  odrl::fuzz::fuzz_trace(data, size);
  return 0;
}
