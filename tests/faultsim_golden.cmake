# CTest script for the faultsim-golden check: runs the MNIST-GAN
# resilience campaign through ganacc-faultsim three times and
# byte-compares each JSON report against its committed golden. The
# transient-only plan walks with the injector's row filter; adding a
# stuck lane turns the filter off, so the per-MAC hook path is pinned
# too. The storage bit-flip case recomputes the reference convolution
# per cell: cells that draw no flip take its zero-skipping path, and
# cells whose flips break the zero structure or make an operand
# non-finite take its dense fallback. Variables:
# TOOL (ganacc-faultsim binary), GOLDEN_DIR (committed goldens),
# OUT_DIR (directory for the generated reports).

function(check_campaign name)
    set(out ${OUT_DIR}/${name}.json)
    execute_process(
        COMMAND ${TOOL} --model mnist-gan --seed 1 --format json ${ARGN}
        OUTPUT_FILE ${out}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "ganacc-faultsim ${ARGN} exited with status ${rc}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${out}
                ${GOLDEN_DIR}/${name}.json
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
            "campaign report diverges from ${GOLDEN_DIR}/${name}.json; "
            "inspect ${out} and, if the change is intended, regenerate "
            "the golden with: ganacc-faultsim --model mnist-gan --seed 1 "
            "--format json ${ARGN}")
    endif()
endfunction()

check_campaign(faultsim_mnist_transient)
check_campaign(faultsim_mnist_pe_lane3 --pe-lane 3 --bits 2)
check_campaign(faultsim_mnist_mem --flip-prob 1e-7)
