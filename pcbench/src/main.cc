/**
 * @file
 * pcbench: the repository benchmark's workload runner.
 *
 *   pcbench --workload full_mem|delta_file|fleet --seed N --seconds S
 *           --trace 0|1 [--workdir DIR]
 *
 * --trace 0 runs one untraced window of S seconds and prints the
 * end-to-end metrics. --trace 1 runs an untraced and a traced window of
 * S/2 seconds each and prints the per-layer metrics of the traced one,
 * with trace.overhead_frac comparing their training throughput.
 *
 * Every run checks its outputs (recovered images byte for byte, the
 * crash leg) and prints the calibration leg. The last stdout line is
 * one JSON object {correct, attempted, failed, metrics}. A failed check
 * exits 1 without printing it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace {

using namespace pcbench;

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "pcbench: %s\nusage: pcbench --workload "
                 "full_mem|delta_file|fleet --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parse(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + arg);
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = value;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                opt.trace = std::stoi(value) != 0;
            } else if (arg == "--workdir") {
                opt.workdir = value;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (!(opt.seconds > 0)) {
        usage("--seconds must be positive");
    }
    return opt;
}

std::string
json_number(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
print_metrics(const char* section, const Metrics& metrics)
{
    for (const auto& [name, metric] : metrics) {
        std::printf("%s %-28s %.6g %s\n", section, name.c_str(), metric.value,
                    metric.unit.c_str());
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    pccheck::set_log_level(pccheck::LogLevel::kError);
    const Options opt = parse(argc, argv);
    RunResult (*workload)(const Options&, double, bool) = nullptr;
    if (opt.workload == "full_mem") {
        workload = run_full_mem;
    } else if (opt.workload == "delta_file") {
        workload = run_delta_file;
    } else if (opt.workload == "fleet") {
        workload = run_fleet;
    } else {
        usage("unknown workload '" + opt.workload + "'");
    }

    Metrics reported;
    RunResult run;
    try {
        if (!opt.trace) {
            run = workload(opt, opt.seconds, false);
            reported = run.end_to_end;
        } else {
            const RunResult plain = workload(opt, opt.seconds / 2, false);
            run = workload(opt, opt.seconds / 2, true);
            reported = run.per_layer;
            reported["trace.overhead_frac"].value =
                1.0 - run.end_to_end.at("train_it_s").value /
                          plain.end_to_end.at("train_it_s").value;
        }
        for (const auto& [name, metric] : reported) {
            gate(std::isfinite(metric.value), "metric " + name + " is not finite");
        }
    } catch (const GateFailure& failure) {
        std::fprintf(stderr, "pcbench: correctness gate failed: %s\n",
                     failure.what());
        return 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "pcbench: %s\n", error.what());
        return 1;
    }

    std::printf("# pcbench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    Metrics calibration;
    for (const char* name : {"ref.memcpy_gbps", "util.crc32_gbps",
                             "gpusim.copy_gbps", "ref.disk_persist_ms"}) {
        calibration[name] = run.per_layer.at(name);
    }
    print_metrics("calibration", calibration);
    print_metrics(opt.trace ? "per_layer" : "end_to_end", reported);
    // Beside the percentiles: how many samples they rest on, and what
    // they are made of (synchronous delta frames or coalesced records,
    // and asynchronous full checkpoints).
    std::printf("latency samples: %.0f in windows (%.0f sync, %.0f full)\n",
                run.per_layer.at("ckpt.latency_samples").value,
                run.per_layer.at("ckpt.sync_samples").value,
                run.per_layer.at("ckpt.full_samples").value);

    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(run.attempted) +
                       ", \"failed\": " + std::to_string(run.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : reported) {
        json += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + json_number(metric.value) +
                ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
