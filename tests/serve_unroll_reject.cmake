# CTest driver: the pipe daemon refuses non-positive unroll factors at
# the request boundary and keeps serving. REQS holds four OST spec
# requests: P_of = 0, P_ox = -4, a valid one, then P_ox = P_oy = 65536
# (2^33 PEs at P_of = 2). The daemon must answer ok:false naming P_of,
# ok:false naming P_ox, ok:true, then ok:false naming the PE count, and
# exit 0 (a zero factor used to kill it with SIGFPE; the last line
# used to be served with "nPes":0).
#
# Variables: SERVED (binary), REQS (request file), OUT (scratch output).

execute_process(
    COMMAND ${SERVED} --pipe --jobs 1 --deterministic --quiet
    INPUT_FILE ${REQS}
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ganacc-served exited with status ${rc}")
endif()
file(STRINGS ${OUT} lines)
list(LENGTH lines n)
if(NOT n EQUAL 4)
    message(FATAL_ERROR "expected 4 responses, got ${n}: ${lines}")
endif()
list(GET lines 0 pof)
list(GET lines 1 pox)
list(GET lines 2 good)
list(GET lines 3 overflow)
foreach(case "pof;P_of = 0" "pox;P_ox = -4")
    list(GET case 0 var)
    list(GET case 1 factor)
    set(line "${${var}}")
    if(NOT line MATCHES "\"ok\":false" OR
       NOT line MATCHES "GA-UNROLL-POSITIVE" OR
       NOT line MATCHES "${factor} must be at least 1")
        message(FATAL_ERROR "expected ok:false naming ${factor}: ${line}")
    endif()
endforeach()
if(NOT good MATCHES "\"ok\":true")
    message(FATAL_ERROR "the valid request after them was not served: "
        "${good}")
endif()
if(NOT overflow MATCHES "\"ok\":false" OR
   NOT overflow MATCHES "PE count .* exceeds 2147483647")
    message(FATAL_ERROR "expected ok:false for the PE-count overflow: "
        "${overflow}")
endif()
