// libFuzzer driver for the binary Q-table loader (ODRL_FUZZ builds).
#include <cstddef>
#include <cstdint>

#include "harness.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  odrl::fuzz::fuzz_qtable(data, size);
  return 0;
}
