#include "server/faults.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/flags.h"
#include "obs/flight_recorder.h"

namespace square {

namespace {

void
sleepMs(double ms)
{
    if (ms > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
}

} // namespace

FaultInjector::FaultInjector()
    : compileDelaysC_(metrics_.counter("compile_delays")),
      workerDeathsC_(metrics_.counter("worker_deaths")),
      writeFailuresC_(metrics_.counter("write_failures")),
      readStallsC_(metrics_.counter("read_stalls")),
      connectFailuresC_(metrics_.counter("connect_failures")),
      connectionResetsC_(metrics_.counter("connection_resets")),
      enabledG_(metrics_.gauge("enabled"))
{
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::configure(const FaultConfig &cfg)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        cfg_ = cfg;
        rng_.reseed(cfg.seed);
    }
    enabled_.store(true, std::memory_order_release);
    enabledG_.set(1);
}

void
FaultInjector::disable()
{
    enabled_.store(false, std::memory_order_release);
    enabledG_.set(0);
}

bool
FaultInjector::configureFromSpec(const std::string &spec,
                                 std::string &error)
{
    FaultConfig cfg;
    size_t pos = 0;
    if (spec.empty()) {
        error = "empty fault spec";
        return false;
    }
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string pair = spec.substr(pos, comma - pos);
        pos = comma + 1;
        size_t eq = pair.find('=');
        if (eq == std::string::npos) {
            error = "fault spec entry '" + pair + "' is not key=value";
            return false;
        }
        const std::string key = pair.substr(0, eq);
        const std::string_view value =
            std::string_view(pair).substr(eq + 1);
        // An hour: keeps the sleeps and the millisecond event
        // arguments within integer range.
        constexpr double kMaxMs = 3600000;
        bool ok = false;
        if (key == "seed") {
            ok = parseUint(value, cfg.seed);
        } else if (key == "compile_delay_ms") {
            ok = parseReal(value, 0, kMaxMs, cfg.compileDelayMs);
        } else if (key == "compile_delay_jitter_ms") {
            ok = parseReal(value, 0, kMaxMs, cfg.compileDelayJitterMs);
        } else if (key == "worker_death_rate") {
            ok = parseReal(value, 0, 1, cfg.workerDeathRate);
        } else if (key == "write_fail_rate") {
            ok = parseReal(value, 0, 1, cfg.writeFailRate);
        } else if (key == "read_stall_ms") {
            ok = parseReal(value, 0, kMaxMs, cfg.readStallMs);
        } else if (key == "connect_fail_rate") {
            ok = parseReal(value, 0, 1, cfg.connectFailRate);
        } else if (key == "reset_after_bytes") {
            ok = parseUint(value, cfg.resetAfterBytes);
        } else {
            error = "unknown fault key '" + key + "'";
            return false;
        }
        if (!ok) {
            error = "bad value for fault key '" + key + "'";
            return false;
        }
    }
    configure(cfg);
    return true;
}

bool
FaultInjector::configureFromEnv(std::string &error)
{
    const char *spec = std::getenv("SQUARE_FAULTS");
    if (spec == nullptr || *spec == '\0')
        return false;
    return configureFromSpec(spec, error);
}

void
FaultInjector::onCompileStart()
{
    if (!enabled())
        return;
    double delay = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (cfg_.compileDelayMs <= 0 && cfg_.compileDelayJitterMs <= 0)
            return;
        delay = cfg_.compileDelayMs +
                rng_.uniform() * cfg_.compileDelayJitterMs;
        compileDelaysC_.add(1);
    }
    obs::recordEvent(obs::Comp::Fault, obs::Ev::FaultCompileDelay,
                     static_cast<uint64_t>(delay));
    sleepMs(delay); // outside the lock: delays must not serialize
}

bool
FaultInjector::shouldKillWorker()
{
    if (!enabled())
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (cfg_.workerDeathRate <= 0 || !rng_.coin(cfg_.workerDeathRate))
        return false;
    workerDeathsC_.add(1);
    obs::recordEvent(obs::Comp::Fault, obs::Ev::FaultWorkerDeath,
                     static_cast<uint64_t>(workerDeathsC_.value()));
    return true;
}

bool
FaultInjector::shouldFailWrite()
{
    if (!enabled())
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (cfg_.writeFailRate <= 0 || !rng_.coin(cfg_.writeFailRate))
        return false;
    writeFailuresC_.add(1);
    obs::recordEvent(obs::Comp::Fault, obs::Ev::FaultWriteFail,
                     static_cast<uint64_t>(writeFailuresC_.value()));
    return true;
}

void
FaultInjector::onReadStart()
{
    if (!enabled())
        return;
    double stall = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (cfg_.readStallMs <= 0)
            return;
        stall = cfg_.readStallMs;
        readStallsC_.add(1);
    }
    obs::recordEvent(obs::Comp::Fault, obs::Ev::FaultReadStall,
                     static_cast<uint64_t>(stall));
    sleepMs(stall);
}

bool
FaultInjector::shouldFailConnect()
{
    if (!enabled())
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (cfg_.connectFailRate <= 0 || !rng_.coin(cfg_.connectFailRate))
        return false;
    connectFailuresC_.add(1);
    obs::recordEvent(obs::Comp::Fault, obs::Ev::FaultConnectFail,
                     static_cast<uint64_t>(connectFailuresC_.value()));
    return true;
}

uint64_t
FaultInjector::resetAfterBytes() const
{
    if (!enabled())
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return cfg_.resetAfterBytes;
}

void
FaultInjector::noteConnectionReset()
{
    std::lock_guard<std::mutex> lock(mu_);
    connectionResetsC_.add(1);
    obs::recordEvent(obs::Comp::Fault, obs::Ev::FaultReset,
                     static_cast<uint64_t>(connectionResetsC_.value()));
}

FaultStats
FaultInjector::stats() const
{
    return {compileDelaysC_.value(),   workerDeathsC_.value(),
            writeFailuresC_.value(),   readStallsC_.value(),
            connectFailuresC_.value(), connectionResetsC_.value()};
}

} // namespace square
