# CTest driver for the lint-golden check: runs ganacc-lint over every
# bundled network in JSON mode and byte-compares the report against the
# committed golden. Variables: LINT (binary), GOLDEN (committed report),
# OUT (scratch output path) and, optionally, ARCH (lint that
# architecture's published unrolling too, as `--arch ARCH`).

set(args --model all)
if(DEFINED ARCH)
    list(APPEND args --arch ${ARCH})
endif()

execute_process(
    COMMAND ${LINT} ${args} --format=json
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ganacc-lint exited with status ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    list(JOIN args " " shown)
    message(FATAL_ERROR
        "lint report diverges from ${GOLDEN}; inspect ${OUT} and, if "
        "the change is intended, regenerate the golden with: "
        "ganacc-lint ${shown} --format=json")
endif()
