# End-to-end check of the CLIs' --json output: `lemons-lint --json`
# on a shipped config and `lemons-fleet run --json` on a small fleet
# spec written here must each exit 0 and emit an ok lemons-api/1
# envelope (checked by verify_serve_json.cmake), and both CLIs must
# reject the removed legacy JSON option as a usage error (exit 2).
#
# Usage:
#   cmake -DLINT=<lemons-lint> -DFLEET=<lemons-fleet>
#         -DCONFIG=<file.lemons> -DWORK_DIR=<scratch dir>
#         -P verify_cli_json.cmake

foreach(var LINT FLEET CONFIG WORK_DIR)
    if(NOT ${var})
        message(FATAL_ERROR "verify_cli_json.cmake needs ${var}")
    endif()
endforeach()
set(envelope_check "${CMAKE_CURRENT_LIST_DIR}/verify_serve_json.cmake")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A fleet small enough to run in well under a second.
set(fleet_spec "${WORK_DIR}/cli_json_fleet.lemons")
file(WRITE "${fleet_spec}" "[fleet]
devices = 200
seed = 7
horizon_days = 365
premature_days = 90

[cohort]
name = nominal
weight = 1
access_bound = 91250
mean_per_day = 50
main_alpha = 150000
main_beta = 12
")

# Run a CLI, require exit 0, and pin its stdout as an ok envelope.
function(expect_ok_envelope name)
    set(out "${WORK_DIR}/${name}.json")
    execute_process(COMMAND ${ARGN}
                    OUTPUT_FILE "${out}"
                    ERROR_VARIABLE stderr
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${name}: expected exit 0, got ${status}; "
                            "stderr:\n${stderr}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -DJSON=${out}
                            -DEXPECT_OK=true -P ${envelope_check}
                    OUTPUT_VARIABLE check_out
                    ERROR_VARIABLE check_err
                    RESULT_VARIABLE check_status)
    if(NOT check_status EQUAL 0)
        message(FATAL_ERROR "${name}: envelope check failed:\n"
                            "${check_out}${check_err}")
    endif()
endfunction()

# Run a CLI and require the usage-error exit code 2.
function(expect_usage_error name)
    execute_process(COMMAND ${ARGN}
                    OUTPUT_QUIET
                    ERROR_QUIET
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 2)
        message(FATAL_ERROR "${name}: expected exit 2, got ${status}")
    endif()
endfunction()

expect_ok_envelope(lint ${LINT} --json ${CONFIG})
expect_ok_envelope(fleet ${FLEET} run ${fleet_spec} --json)
expect_usage_error(lint_json_legacy ${LINT} --json-legacy ${CONFIG})
expect_usage_error(fleet_json_legacy
                   ${FLEET} run ${fleet_spec} --json-legacy)
