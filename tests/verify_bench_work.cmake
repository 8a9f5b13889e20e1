# Work gate for the benchmark harness's BENCH_results.json: counters
# that are exact on any host at fixed seeds and scale, so a sampler
# that silently falls off its fast path (or drops a draw) fails every
# time, whatever the wall clock says.
#
#  - usage.mway_factors / usage.survival_probability: one Monte Carlo
#    pass per question (sim.mc.run counts 5 and 15): budgetForSurvival
#    answers from one pass, not a bisection.
#  - ablation.model_sensitivity: wearout.mixture.samples equals the
#    per-device draw count (no device draw dropped or added).
#  - ablation.model_sensitivity / ablation.fault_injection: the
#    classed bank kernel ran (engine.bank.transforms > 0) and
#    transformed at most 2 * k uniforms per structure, with k the
#    largest structure threshold those benches build (11).
#
# Usage:
#   cmake -DJSON=<BENCH_results.json> -P verify_bench_work.cmake

if(NOT JSON)
    message(FATAL_ERROR "verify_bench_work.cmake needs JSON")
endif()
if(CMAKE_VERSION VERSION_LESS 3.19)
    message(FATAL_ERROR "verify_bench_work.cmake needs CMake >= 3.19 "
                        "for string(JSON)")
endif()

file(READ "${JSON}" content)

# The expected counts are those of the quick scale (0.05).
string(JSON quick ERROR_VARIABLE err GET "${content}" quick)
string(JSON scale ERROR_VARIABLE err2 GET "${content}" scale)
if(err OR err2 OR NOT quick OR NOT scale MATCHES "^0\\.05(0*[0-9])?$")
    message(FATAL_ERROR "work counts assume --quick (scale 0.05), got "
                        "quick='${quick}' scale='${scale}'")
endif()

string(JSON count LENGTH "${content}" benchmarks)
math(EXPR last "${count} - 1")
foreach(i RANGE 0 ${last})
    string(JSON name GET "${content}" benchmarks ${i} name)
    string(REPLACE "." "_" var "${name}")
    set(index_${var} ${i})
endforeach()

# Read counters.<counter> (or timers.<timer>.count) of bench <name>
# into <out>; a missing entry reads 0.
function(work_value out name section key)
    string(REPLACE "." "_" var "${name}")
    if(NOT DEFINED index_${var})
        message(FATAL_ERROR "bench ${name} missing from ${JSON}")
    endif()
    if(section STREQUAL "timers")
        string(JSON value ERROR_VARIABLE err
               GET "${content}" benchmarks ${index_${var}} timers "${key}"
               count)
    else()
        string(JSON value ERROR_VARIABLE err
               GET "${content}" benchmarks ${index_${var}} counters
               "${key}")
    endif()
    if(err)
        set(value 0)
    endif()
    set(${out} ${value} PARENT_SCOPE)
endfunction()

function(expect_equal name section key want)
    work_value(got ${name} ${section} ${key})
    if(NOT got EQUAL want)
        message(FATAL_ERROR "${name}: ${key} = ${got}, expected ${want}")
    endif()
endfunction()

expect_equal(usage.mway_factors timers sim.mc.run 5)
expect_equal(usage.survival_probability timers sim.mc.run 15)
expect_equal(ablation.model_sensitivity counters wearout.mixture.samples
             185909400)

set(kMaxThreshold 11)
foreach(name ablation.model_sensitivity ablation.fault_injection)
    work_value(transforms ${name} counters engine.bank.transforms)
    work_value(parallel ${name} counters arch.sim.structure_samples)
    work_value(faulty ${name} counters arch.sim.faulty_structure_samples)
    math(EXPR bound "2 * ${kMaxThreshold} * (${parallel} + ${faulty})")
    if(transforms LESS_EQUAL 0 OR transforms GREATER bound)
        message(FATAL_ERROR "${name}: engine.bank.transforms = "
                            "${transforms}, expected 1..${bound} "
                            "(2 * ${kMaxThreshold} per structure)")
    endif()
endforeach()

message(STATUS "${JSON}: bench work counters OK")
