/**
 * @file
 * Single-device serving for the tests: a one-member serve::Fleet over
 * a chip and resource manager the test owns, so the test can inspect
 * both (leases, stats, fault logs) after the run. Header-only and
 * test-only; applications use api::Server over a Device.
 */

#ifndef DTU_TESTS_SERVING_TEST_UTIL_HH
#define DTU_TESTS_SERVING_TEST_UTIL_HH

#include <utility>
#include <vector>

#include "serve/fleet.hh"

namespace dtu::test
{

/** Serve @p trace on @p chip under @p config; returns its report. */
inline serve::ServingReport
serveOnChip(Dtu &chip, ResourceManager &rm, serve::ServingConfig config,
            std::vector<serve::Request> trace)
{
    serve::FleetConfig one_device;
    one_device.serving = std::move(config);
    serve::Fleet fleet({{&chip, &rm}}, std::move(one_device));
    return std::move(fleet.serve(std::move(trace)).perDevice.front().report);
}

} // namespace dtu::test

#endif // DTU_TESTS_SERVING_TEST_UTIL_HH
