// The watchdog's deadlock report names each rank's last user point-to-point
// operation. The validator stores the operation raw on the hot send/recv
// path and formats it only here.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "mbd/comm/world.hpp"

namespace mbd::comm {
namespace {

TEST(ValidatorReport, NamesEachRanksLastP2pOp) {
  World world(2);
  world.enable_validation();
  world.set_validation_timeout(std::chrono::milliseconds(300));
  std::string report;
  try {
    world.run([](Comm& c) {
      if (c.rank() == 1) {
        const std::vector<float> v(3, 1.0f);
        c.send(/*dst=*/0, std::span<const float>(v), /*tag=*/3);
        return;
      }
      (void)c.recv<float>(/*src=*/1, /*tag=*/7);  // never sent
    });
  } catch (const Error& e) {
    report = e.what();
  }
  ASSERT_NE(report.find("probable deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("rank 0: collective <none yet>, p2p "
                        "recv(from=1, tag=7)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("rank 1: collective <none yet>, p2p "
                        "send(to=0, tag=3, bytes=12)"),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace mbd::comm
